//! Abstract syntax tree for the Go subset.
//!
//! Nodes carry [`Span`]s so the analyzer can report positions and the
//! transformer can anchor its rewrites. Expression nodes also carry a
//! stable [`NodeId`] assigned by the parser; the analyzer keys facts (e.g.
//! "this call is a lock-point") by `NodeId`, and the transformer finds the
//! nodes again by the same id — the same role `go/ast` node identity plays
//! for GOCC.

use crate::token::Span;

/// A stable identity for an expression or statement node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A parsed source file.
#[derive(Clone, Debug)]
pub struct File {
    /// `package` name.
    pub package: String,
    /// Import paths.
    pub imports: Vec<String>,
    /// Top-level declarations.
    pub decls: Vec<Decl>,
}

/// A top-level declaration.
#[derive(Clone, Debug)]
pub enum Decl {
    /// `func` declaration (possibly a method).
    Func(FuncDecl),
    /// `type Name struct {...}` declaration.
    TypeStruct(StructDecl),
    /// `var name T = expr` at package scope.
    Var(VarDecl),
    /// `const name = expr` at package scope.
    Const(VarDecl),
}

/// A struct type declaration.
#[derive(Clone, Debug)]
pub struct StructDecl {
    /// Type name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<Field>,
    /// Source span of the declaration.
    pub span: Span,
}

/// One struct field (or parameter).
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name; `None` for embedded (anonymous) fields, whose name is
    /// the base name of the type (`sync.Mutex` embeds as `Mutex`).
    pub name: Option<String>,
    /// Field type.
    pub ty: Type,
}

impl Field {
    /// The name the field is accessed by: explicit, or the embedded type's
    /// base name.
    #[must_use]
    pub fn access_name(&self) -> &str {
        match &self.name {
            Some(n) => n,
            None => self.ty.base_name(),
        }
    }

    /// Whether this is an embedded (anonymous) field.
    #[must_use]
    pub fn is_embedded(&self) -> bool {
        self.name.is_none()
    }
}

/// A package- or function-level `var`/`const` declaration.
#[derive(Clone, Debug)]
pub struct VarDecl {
    /// Declared names.
    pub names: Vec<String>,
    /// Declared type, if present.
    pub ty: Option<Type>,
    /// Initializer expressions, if present.
    pub values: Vec<Expr>,
    /// Source span.
    pub span: Span,
}

/// A function or method declaration.
#[derive(Clone, Debug)]
pub struct FuncDecl {
    /// Function name.
    pub name: String,
    /// Method receiver, if any.
    pub recv: Option<Receiver>,
    /// Parameters.
    pub params: Vec<Field>,
    /// Result types.
    pub results: Vec<Type>,
    /// Body block.
    pub body: Block,
    /// Source span of the whole declaration.
    pub span: Span,
}

/// A method receiver.
#[derive(Clone, Debug)]
pub struct Receiver {
    /// Receiver variable name.
    pub name: String,
    /// Receiver base type name.
    pub type_name: String,
    /// Whether the receiver is a pointer (`*T`).
    pub pointer: bool,
}

/// Types in the subset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Type {
    /// Named type, possibly qualified (`sync.Mutex`).
    Named { pkg: Option<String>, name: String },
    /// `*T`.
    Pointer(Box<Type>),
    /// `[]T`.
    Slice(Box<Type>),
    /// `[N]T` (length erased).
    Array(Box<Type>),
    /// `map[K]V`.
    Map(Box<Type>, Box<Type>),
    /// `chan T`.
    Chan(Box<Type>),
    /// `func(...) ...` (signature erased).
    Func,
    /// `interface{}` (erased).
    Interface,
    /// Inline `struct{...}` (fields erased; named structs are declared).
    Struct,
}

impl Type {
    /// The base identifier of a (possibly pointered) named type, used for
    /// embedded-field access names.
    #[must_use]
    pub fn base_name(&self) -> &str {
        match self {
            Type::Named { name, .. } => name,
            Type::Pointer(inner) => inner.base_name(),
            _ => "",
        }
    }

    /// Whether the type is `sync.Mutex` / `sync.RWMutex` (or a pointer to
    /// one).
    #[must_use]
    pub fn is_mutex(&self) -> bool {
        match self {
            Type::Named { pkg, name } => {
                pkg.as_deref() == Some("sync") && (name == "Mutex" || name == "RWMutex")
            }
            Type::Pointer(inner) => inner.is_mutex(),
            _ => false,
        }
    }

    /// Whether the type is `sync.RWMutex` (or a pointer to one).
    #[must_use]
    pub fn is_rwmutex(&self) -> bool {
        match self {
            Type::Named { pkg, name } => pkg.as_deref() == Some("sync") && name == "RWMutex",
            Type::Pointer(inner) => inner.is_rwmutex(),
            _ => false,
        }
    }
}

/// A `{}` block of statements.
#[derive(Clone, Debug)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// Statements.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// Local `var` declaration.
    Var(VarDecl),
    /// `lhs := rhs` or `lhs = rhs` (also `+=` etc., operator erased to
    /// plain assignment for analysis purposes — the RHS keeps the reads).
    Assign {
        /// Left-hand sides.
        lhs: Vec<Expr>,
        /// Right-hand sides.
        rhs: Vec<Expr>,
        /// Whether this is a short variable declaration (`:=`).
        define: bool,
        /// Node identity.
        id: NodeId,
        /// Source span.
        span: Span,
    },
    /// A bare expression statement (usually a call).
    Expr(Expr),
    /// `x++` / `x--`.
    IncDec {
        /// Target expression.
        target: Expr,
        /// `true` for `++`.
        inc: bool,
        /// Source span.
        span: Span,
    },
    /// `if init; cond { } else { }`.
    If {
        /// Optional init statement.
        init: Option<Box<Stmt>>,
        /// Condition.
        cond: Expr,
        /// Then block.
        then: Block,
        /// Optional else branch (block or another `if`).
        els: Option<Box<Stmt>>,
        /// Source span.
        span: Span,
    },
    /// A bare `{ ... }` block.
    Block(Block),
    /// `for init; cond; post { }` (any part optional) or `for range`.
    For {
        /// Optional init statement.
        init: Option<Box<Stmt>>,
        /// Optional condition.
        cond: Option<Expr>,
        /// Optional post statement.
        post: Option<Box<Stmt>>,
        /// Optional `range` subject (`for k, v := range expr`).
        range_over: Option<Expr>,
        /// Range binding names, if a range loop.
        range_vars: Vec<String>,
        /// Loop body.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// `switch cond { case ...: }` — cases flattened for analysis.
    Switch {
        /// Optional scrutinee.
        cond: Option<Expr>,
        /// Case bodies (conditions erased; every case is may-taken).
        cases: Vec<(Vec<Expr>, Block)>,
        /// Whether a `default:` case exists.
        has_default: bool,
        /// Source span.
        span: Span,
    },
    /// `select { ... }` — retained only as an HTM-unfriendly marker.
    Select {
        /// Case bodies.
        cases: Vec<Block>,
        /// Source span.
        span: Span,
    },
    /// `return exprs`.
    Return {
        /// Returned expressions.
        values: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// `break`.
    Break(Span),
    /// `continue`.
    Continue(Span),
    /// `defer call`.
    Defer {
        /// The deferred call.
        call: Expr,
        /// Node identity (the defer site).
        id: NodeId,
        /// Source span.
        span: Span,
    },
    /// `go call` (goroutine launch).
    Go {
        /// The launched call.
        call: Expr,
        /// Source span.
        span: Span,
    },
    /// `ch <- v` (send) — HTM-unfriendly marker.
    Send {
        /// Channel expression.
        chan: Expr,
        /// Sent value.
        value: Expr,
        /// Source span.
        span: Span,
    },
}

impl Stmt {
    /// The statement's source span.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Stmt::Var(v) => v.span,
            Stmt::Assign { span, .. }
            | Stmt::IncDec { span, .. }
            | Stmt::If { span, .. }
            | Stmt::For { span, .. }
            | Stmt::Switch { span, .. }
            | Stmt::Select { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Defer { span, .. }
            | Stmt::Go { span, .. }
            | Stmt::Send { span, .. } => *span,
            Stmt::Expr(e) => e.span(),
            Stmt::Block(b) => b.span,
            Stmt::Break(s) | Stmt::Continue(s) => *s,
        }
    }
}

/// Expressions.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Identifier.
    Ident {
        /// Name.
        name: String,
        /// Node identity.
        id: NodeId,
        /// Source span.
        span: Span,
    },
    /// Integer literal.
    Int {
        /// Value.
        value: i64,
        /// Source span.
        span: Span,
    },
    /// Float literal.
    Float {
        /// Value.
        value: f64,
        /// Source span.
        span: Span,
    },
    /// String literal.
    Str {
        /// Value.
        value: String,
        /// Source span.
        span: Span,
    },
    /// Bool literal (parsed from `true`/`false` idents at analysis level —
    /// kept as idents; this variant exists for completeness of printing).
    Bool {
        /// Value.
        value: bool,
        /// Source span.
        span: Span,
    },
    /// `base.field` selection.
    Selector {
        /// Base expression.
        base: Box<Expr>,
        /// Selected field/method name.
        field: String,
        /// Node identity.
        id: NodeId,
        /// Source span.
        span: Span,
    },
    /// `f(args...)`.
    Call {
        /// Callee (ident or selector, typically).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Node identity — the analyzer keys lock/unlock points by this.
        id: NodeId,
        /// Source span.
        span: Span,
    },
    /// `base[index]`.
    Index {
        /// Base expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Unary operation (`-x`, `!x`, `&x`, `*x`, `<-ch`).
    Unary {
        /// Operator lexeme.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
        /// Node identity.
        id: NodeId,
        /// Source span.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator lexeme (as written, e.g. `+`, `&&`).
        op: String,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Composite literal `T{elems...}`.
    Composite {
        /// The literal's type.
        ty: Type,
        /// Element expressions (`key: value` pairs flattened; keys kept).
        elems: Vec<(Option<String>, Expr)>,
        /// Node identity (an allocation site for points-to).
        id: NodeId,
        /// Source span.
        span: Span,
    },
    /// A type used in expression position (e.g. the first argument of
    /// `make(map[string]Item, n)`).
    TypeLit {
        /// The denoted type.
        ty: Type,
        /// Source span.
        span: Span,
    },
    /// Function literal (closure / anonymous function).
    FuncLit {
        /// Parameters.
        params: Vec<Field>,
        /// Result types.
        results: Vec<Type>,
        /// Body.
        body: Box<Block>,
        /// Node identity.
        id: NodeId,
        /// Source span.
        span: Span,
    },
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
    /// Address-of.
    Addr,
    /// Pointer dereference.
    Deref,
    /// Channel receive.
    Recv,
    /// Bitwise complement (`^x`).
    BitNot,
}

impl Expr {
    /// The expression's source span.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Expr::Ident { span, .. }
            | Expr::Int { span, .. }
            | Expr::Float { span, .. }
            | Expr::Str { span, .. }
            | Expr::Bool { span, .. }
            | Expr::Selector { span, .. }
            | Expr::Call { span, .. }
            | Expr::Index { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Composite { span, .. }
            | Expr::TypeLit { span, .. }
            | Expr::FuncLit { span, .. } => *span,
        }
    }

    /// The node id, for expression kinds that carry one.
    #[must_use]
    pub fn id(&self) -> Option<NodeId> {
        match self {
            Expr::Ident { id, .. }
            | Expr::Selector { id, .. }
            | Expr::Call { id, .. }
            | Expr::Unary { id, .. }
            | Expr::Composite { id, .. }
            | Expr::FuncLit { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// If this is `recv.method(...)`, returns `(receiver-expr, method)`.
    #[must_use]
    pub fn as_method_call(&self) -> Option<(&Expr, &str)> {
        if let Expr::Call { callee, .. } = self {
            if let Expr::Selector { base, field, .. } = callee.as_ref() {
                return Some((base.as_ref(), field.as_str()));
            }
        }
        None
    }
}

/// File-level helpers.
impl File {
    /// Iterates over all function declarations (not closures).
    pub fn funcs(&self) -> impl Iterator<Item = &FuncDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Func(f) => Some(f),
            _ => None,
        })
    }
}
