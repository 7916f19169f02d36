//! A `gofmt`-flavored pretty printer.
//!
//! The transformer rewrites the AST and serializes it back to source with
//! this printer, the way GOCC uses Go's `format` package (§5.3). Output is
//! deterministic: tabs for indentation, one statement per line, canonical
//! spacing — so diffs between the printed original and the printed
//! transformed file contain exactly the transformation.

use crate::ast::{
    Block, Decl, Expr, Field, File, FuncDecl, Stmt, StructDecl, Type, UnaryOp, VarDecl,
};

/// Prints a whole file.
#[must_use]
pub fn print_file(file: &File) -> String {
    let mut p = Printer::default();
    p.file(file);
    p.out
}

#[derive(Default)]
struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push('\t');
        }
    }

    fn file(&mut self, f: &File) {
        self.out.push_str("package ");
        self.out.push_str(&f.package);
        self.out.push('\n');
        if !f.imports.is_empty() {
            self.out.push('\n');
            if f.imports.len() == 1 {
                self.out.push_str(&format!("import \"{}\"\n", f.imports[0]));
            } else {
                self.out.push_str("import (\n");
                for imp in &f.imports {
                    self.out.push_str(&format!("\t\"{imp}\"\n"));
                }
                self.out.push_str(")\n");
            }
        }
        for d in &f.decls {
            self.out.push('\n');
            match d {
                Decl::Func(fd) => self.func_decl(fd),
                Decl::TypeStruct(sd) => self.struct_decl(sd),
                Decl::Var(vd) => {
                    self.out.push_str("var ");
                    self.var_body(vd);
                    self.out.push('\n');
                }
                Decl::Const(vd) => {
                    self.out.push_str("const ");
                    self.var_body(vd);
                    self.out.push('\n');
                }
            }
        }
    }

    fn struct_decl(&mut self, sd: &StructDecl) {
        self.out.push_str(&format!("type {} struct {{", sd.name));
        self.indent += 1;
        for field in &sd.fields {
            self.nl();
            if let Some(n) = &field.name {
                self.out.push_str(n);
                self.out.push(' ');
            }
            self.ty(&field.ty);
        }
        self.indent -= 1;
        self.nl();
        self.out.push_str("}\n");
    }

    fn var_body(&mut self, vd: &VarDecl) {
        self.out.push_str(&vd.names.join(", "));
        if let Some(ty) = &vd.ty {
            self.out.push(' ');
            self.ty(ty);
        }
        if !vd.values.is_empty() {
            self.out.push_str(" = ");
            for (i, v) in vd.values.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.expr(v);
            }
        }
    }

    fn func_decl(&mut self, fd: &FuncDecl) {
        self.out.push_str("func ");
        if let Some(recv) = &fd.recv {
            self.out.push('(');
            self.out.push_str(&recv.name);
            self.out.push(' ');
            if recv.pointer {
                self.out.push('*');
            }
            self.out.push_str(&recv.type_name);
            self.out.push_str(") ");
        }
        self.out.push_str(&fd.name);
        self.params(&fd.params);
        self.results(&fd.results);
        self.out.push(' ');
        self.block(&fd.body);
        self.out.push('\n');
    }

    fn params(&mut self, params: &[Field]) {
        self.out.push('(');
        for (i, p) in params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            if let Some(n) = &p.name {
                self.out.push_str(n);
                self.out.push(' ');
            }
            self.ty(&p.ty);
        }
        self.out.push(')');
    }

    fn results(&mut self, results: &[Type]) {
        match results {
            [] => {}
            [one] => {
                self.out.push(' ');
                self.ty(one);
            }
            many => {
                self.out.push_str(" (");
                for (i, t) in many.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.ty(t);
                }
                self.out.push(')');
            }
        }
    }

    fn ty(&mut self, ty: &Type) {
        match ty {
            Type::Named { pkg, name } => {
                if let Some(p) = pkg {
                    self.out.push_str(p);
                    self.out.push('.');
                }
                self.out.push_str(name);
            }
            Type::Pointer(inner) => {
                self.out.push('*');
                self.ty(inner);
            }
            Type::Slice(inner) => {
                self.out.push_str("[]");
                self.ty(inner);
            }
            Type::Array(inner) => {
                // Array lengths are erased in the subset's type model.
                self.out.push_str("[0]");
                self.ty(inner);
            }
            Type::Map(k, v) => {
                self.out.push_str("map[");
                self.ty(k);
                self.out.push(']');
                self.ty(v);
            }
            Type::Chan(inner) => {
                self.out.push_str("chan ");
                self.ty(inner);
            }
            Type::Func => self.out.push_str("func()"),
            Type::Interface => self.out.push_str("interface{}"),
            Type::Struct => self.out.push_str("struct{}"),
        }
    }

    fn block(&mut self, b: &Block) {
        self.out.push('{');
        self.indent += 1;
        for s in &b.stmts {
            self.nl();
            self.stmt(s);
        }
        self.indent -= 1;
        self.nl();
        self.out.push('}');
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Var(vd) => {
                self.out.push_str("var ");
                self.var_body(vd);
            }
            Stmt::Assign {
                lhs, rhs, define, ..
            } => {
                for (i, e) in lhs.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(e);
                }
                self.out.push_str(if *define { " := " } else { " = " });
                for (i, e) in rhs.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(e);
                }
            }
            Stmt::Expr(e) => self.expr(e),
            Stmt::IncDec { target, inc, .. } => {
                self.expr(target);
                self.out.push_str(if *inc { "++" } else { "--" });
            }
            Stmt::If {
                init,
                cond,
                then,
                els,
                ..
            } => {
                self.out.push_str("if ");
                if let Some(init) = init {
                    self.stmt(init);
                    self.out.push_str("; ");
                }
                self.expr(cond);
                self.out.push(' ');
                self.block(then);
                if let Some(e) = els {
                    self.out.push_str(" else ");
                    match e.as_ref() {
                        Stmt::Block(b) => self.block(b),
                        other => self.stmt(other),
                    }
                }
            }
            Stmt::Block(b) => self.block(b),
            Stmt::For {
                init,
                cond,
                post,
                range_over,
                range_vars,
                body,
                ..
            } => {
                self.out.push_str("for ");
                if let Some(over) = range_over {
                    if !range_vars.is_empty() {
                        self.out.push_str(&range_vars.join(", "));
                        self.out.push_str(" := ");
                    }
                    self.out.push_str("range ");
                    self.expr(over);
                    self.out.push(' ');
                } else if init.is_none() && post.is_none() {
                    if let Some(c) = cond {
                        self.expr(c);
                        self.out.push(' ');
                    }
                } else {
                    if let Some(i) = init {
                        self.stmt(i);
                    }
                    self.out.push_str("; ");
                    if let Some(c) = cond {
                        self.expr(c);
                    }
                    self.out.push_str("; ");
                    if let Some(p) = post {
                        self.stmt(p);
                    }
                    self.out.push(' ');
                }
                self.block(body);
            }
            Stmt::Switch {
                cond,
                cases,
                has_default,
                ..
            } => {
                self.out.push_str("switch ");
                if let Some(c) = cond {
                    self.expr(c);
                    self.out.push(' ');
                }
                self.out.push('{');
                for (guards, body) in cases {
                    self.nl();
                    if guards.is_empty() {
                        self.out.push_str("default:");
                    } else {
                        self.out.push_str("case ");
                        for (i, g) in guards.iter().enumerate() {
                            if i > 0 {
                                self.out.push_str(", ");
                            }
                            self.expr(g);
                        }
                        self.out.push(':');
                    }
                    self.indent += 1;
                    for st in &body.stmts {
                        self.nl();
                        self.stmt(st);
                    }
                    self.indent -= 1;
                }
                let _ = has_default;
                self.nl();
                self.out.push('}');
            }
            Stmt::Select { cases, .. } => {
                self.out.push_str("select {");
                for body in cases {
                    self.nl();
                    self.out.push_str("default:");
                    self.indent += 1;
                    for st in &body.stmts {
                        self.nl();
                        self.stmt(st);
                    }
                    self.indent -= 1;
                }
                self.nl();
                self.out.push('}');
            }
            Stmt::Return { values, .. } => {
                self.out.push_str("return");
                for (i, v) in values.iter().enumerate() {
                    self.out.push_str(if i == 0 { " " } else { ", " });
                    self.expr(v);
                }
            }
            Stmt::Break(_) => self.out.push_str("break"),
            Stmt::Continue(_) => self.out.push_str("continue"),
            Stmt::Defer { call, .. } => {
                self.out.push_str("defer ");
                self.expr(call);
            }
            Stmt::Go { call, .. } => {
                self.out.push_str("go ");
                self.expr(call);
            }
            Stmt::Send { chan, value, .. } => {
                self.expr(chan);
                self.out.push_str(" <- ");
                self.expr(value);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Ident { name, .. } => self.out.push_str(name),
            Expr::Int { value, .. } => self.out.push_str(&value.to_string()),
            Expr::Float { value, .. } => self.out.push_str(&format!("{value:?}")),
            Expr::Str { value, .. } => self.out.push_str(&format!("{value:?}")),
            Expr::Bool { value, .. } => self.out.push_str(if *value { "true" } else { "false" }),
            Expr::Selector { base, field, .. } => {
                self.expr(base);
                self.out.push('.');
                self.out.push_str(field);
            }
            Expr::Call { callee, args, .. } => {
                self.expr(callee);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            Expr::Index { base, index, .. } => {
                self.expr(base);
                self.out.push('[');
                self.expr(index);
                self.out.push(']');
            }
            Expr::Unary { op, operand, .. } => {
                self.out.push_str(match op {
                    UnaryOp::Neg => "-",
                    UnaryOp::Not => "!",
                    UnaryOp::Addr => "&",
                    UnaryOp::Deref => "*",
                    UnaryOp::Recv => "<-",
                    UnaryOp::BitNot => "^",
                });
                // Parenthesize nested binary operands for correctness.
                if matches!(operand.as_ref(), Expr::Binary { .. }) {
                    self.out.push('(');
                    self.expr(operand);
                    self.out.push(')');
                } else {
                    self.expr(operand);
                }
            }
            Expr::Binary {
                op, left, right, ..
            } => {
                self.binary_operand(left, op, false);
                self.out.push(' ');
                self.out.push_str(op);
                self.out.push(' ');
                self.binary_operand(right, op, true);
            }
            Expr::Composite { ty, elems, .. } => {
                self.ty(ty);
                self.out.push('{');
                for (i, (key, value)) in elems.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    if let Some(k) = key {
                        self.out.push_str(k);
                        self.out.push_str(": ");
                    }
                    self.expr(value);
                }
                self.out.push('}');
            }
            Expr::TypeLit { ty, .. } => self.ty(ty),
            Expr::FuncLit {
                params,
                results,
                body,
                ..
            } => {
                self.out.push_str("func");
                self.params(params);
                self.results(results);
                self.out.push(' ');
                self.block(body);
            }
        }
    }

    fn binary_operand(&mut self, operand: &Expr, parent_op: &str, is_right: bool) {
        let needs_parens = match operand {
            Expr::Binary { op, .. } => {
                let (po, co) = (prec(parent_op), prec(op));
                co < po || (co == po && is_right)
            }
            _ => false,
        };
        if needs_parens {
            self.out.push('(');
            self.expr(operand);
            self.out.push(')');
        } else {
            self.expr(operand);
        }
    }
}

fn prec(op: &str) -> u8 {
    match op {
        "||" => 1,
        "&&" => 2,
        "==" | "!=" | "<" | "<=" | ">" | ">=" => 3,
        "+" | "-" | "|" | "^" => 4,
        _ => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    /// Printing then re-parsing then re-printing must be a fixpoint.
    fn roundtrip(src: &str) {
        let f1 = parse_file(src).expect("initial parse");
        let p1 = print_file(&f1);
        let f2 = parse_file(&p1).unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{p1}"));
        let p2 = print_file(&f2);
        assert_eq!(p1, p2, "printer must be a fixpoint under reparse");
    }

    #[test]
    fn roundtrip_lock_method() {
        roundtrip(
            "package p\n\nimport \"sync\"\n\ntype C struct {\n\tmu sync.Mutex\n\tn int\n}\n\nfunc (c *C) Inc() {\n\tc.mu.Lock()\n\tc.n++\n\tc.mu.Unlock()\n}\n",
        );
    }

    #[test]
    fn roundtrip_control_flow() {
        roundtrip(
            r#"
package p

func f(x int, xs []int) int {
	if x > 0 {
		return x
	} else if x < -1 {
		return -x
	} else {
		x = 0
	}
	for i := 0; i < 10; i++ {
		x += i
	}
	for _, v := range xs {
		x += v
	}
	switch x {
	case 1, 2:
		x = 3
	default:
		x = 4
	}
	return x
}
"#,
        );
    }

    #[test]
    fn roundtrip_defer_and_goroutines() {
        roundtrip(
            r#"
package p

func f() {
	m.Lock()
	defer m.Unlock()
	go func() {
		n.Lock()
		work()
		n.Unlock()
	}()
}
"#,
        );
    }

    #[test]
    fn roundtrip_composites_and_closures() {
        roundtrip(
            r#"
package p

func f() {
	a := Point{x: 1, y: 2}
	c := []int{1, 2, 3}
	m := map[string]int{"k": 1}
	g := func(v int) int {
		return v * 2
	}
	use(a, c, m, g(2))
}
"#,
        );
    }

    #[test]
    fn precedence_preserved() {
        let f = parse_file("package p\nfunc f() int {\n\treturn (1 + 2) * 3\n}\n").unwrap();
        let printed = print_file(&f);
        assert!(printed.contains("(1 + 2) * 3"), "got: {printed}");
    }
}
