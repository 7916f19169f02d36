//! Recursive-descent parser for the Go subset.

use std::fmt;

use crate::ast::{
    Block, Decl, Expr, Field, File, FuncDecl, NodeId, Receiver, Stmt, StructDecl, Type, UnaryOp,
    VarDecl,
};
use crate::lexer::Lexer;
use crate::token::{Span, Tok, Token};

/// A parse error with location.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the source.
    pub offset: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole source file.
pub fn parse_file(src: &str) -> Result<File, ParseError> {
    let tokens = Lexer::tokenize(src).map_err(|e| ParseError {
        message: e.message,
        offset: e.offset,
    })?;
    Parser::new(tokens).file()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Depth of contexts (if/for/switch headers) where a bare `{` starts a
    /// block, not a composite literal.
    no_lit_depth: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            next_id: 0,
            no_lit_depth: 0,
        }
    }

    fn id(&mut self) -> NodeId {
        self.next_id += 1;
        NodeId(self.next_id)
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<Span, ParseError> {
        if self.peek() == tok {
            Ok(self.bump().span)
        } else {
            Err(self.error(format!("expected `{tok}`, found `{}`", self.peek())))
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.span().start,
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.error(format!("expected identifier, found `{other}`"))),
        }
    }

    fn skip_semis(&mut self) {
        while self.eat(&Tok::Semi) {}
    }

    // ----- file structure ---------------------------------------------

    fn file(&mut self) -> Result<File, ParseError> {
        self.skip_semis();
        self.expect(&Tok::Package)?;
        let package = self.ident()?;
        self.skip_semis();
        let mut imports = Vec::new();
        while self.peek() == &Tok::Import {
            self.bump();
            if self.eat(&Tok::LParen) {
                self.skip_semis();
                while self.peek() != &Tok::RParen {
                    // Optional import alias.
                    if matches!(self.peek(), Tok::Ident(_)) {
                        self.bump();
                    }
                    match self.bump().tok {
                        Tok::Str(path) => imports.push(path),
                        other => return Err(self.error(format!("bad import: `{other}`"))),
                    }
                    self.skip_semis();
                }
                self.expect(&Tok::RParen)?;
            } else {
                if matches!(self.peek(), Tok::Ident(_)) {
                    self.bump();
                }
                match self.bump().tok {
                    Tok::Str(path) => imports.push(path),
                    other => return Err(self.error(format!("bad import: `{other}`"))),
                }
            }
            self.skip_semis();
        }
        let mut decls = Vec::new();
        loop {
            self.skip_semis();
            match self.peek() {
                Tok::Eof => break,
                Tok::Func => decls.push(Decl::Func(self.func_decl()?)),
                Tok::Type => {
                    if let Some(s) = self.type_decl()? {
                        decls.push(Decl::TypeStruct(s));
                    }
                }
                Tok::Var => {
                    self.bump();
                    decls.push(Decl::Var(self.var_body()?));
                }
                Tok::Const => {
                    self.bump();
                    if self.eat(&Tok::LParen) {
                        self.skip_semis();
                        while self.peek() != &Tok::RParen {
                            decls.push(Decl::Const(self.var_body()?));
                            self.skip_semis();
                        }
                        self.expect(&Tok::RParen)?;
                    } else {
                        decls.push(Decl::Const(self.var_body()?));
                    }
                }
                other => return Err(self.error(format!("unexpected top-level token `{other}`"))),
            }
        }
        Ok(File {
            package,
            imports,
            decls,
        })
    }

    fn type_decl(&mut self) -> Result<Option<StructDecl>, ParseError> {
        let start = self.expect(&Tok::Type)?;
        let name = self.ident()?;
        if self.peek() == &Tok::Struct {
            self.bump();
            let fields = self.struct_fields()?;
            let span = start.merge(self.prev_span());
            return Ok(Some(StructDecl { name, fields, span }));
        }
        // Non-struct type aliases: parse and discard the underlying type.
        let _ = self.parse_type()?;
        Ok(None)
    }

    fn struct_fields(&mut self) -> Result<Vec<Field>, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut fields = Vec::new();
        self.skip_semis();
        while self.peek() != &Tok::RBrace {
            // Either `name1, name2 T` or an embedded type.
            let mut names = Vec::new();
            let embedded = if matches!(self.peek(), Tok::Ident(_))
                && !matches!(
                    self.peek2(),
                    Tok::Period | Tok::Semi | Tok::RBrace | Tok::Str(_)
                ) {
                // Named field(s).
                names.push(self.ident()?);
                while self.eat(&Tok::Comma) {
                    names.push(self.ident()?);
                }
                false
            } else {
                true
            };
            let ty = self.parse_type()?;
            // Optional struct tag.
            if matches!(self.peek(), Tok::Str(_)) {
                self.bump();
            }
            if embedded {
                fields.push(Field { name: None, ty });
            } else {
                for n in names {
                    fields.push(Field {
                        name: Some(n),
                        ty: ty.clone(),
                    });
                }
            }
            self.skip_semis();
        }
        self.expect(&Tok::RBrace)?;
        Ok(fields)
    }

    fn var_body(&mut self) -> Result<VarDecl, ParseError> {
        let start = self.span();
        let mut names = vec![self.ident()?];
        while self.eat(&Tok::Comma) {
            names.push(self.ident()?);
        }
        let ty = if !matches!(
            self.peek(),
            Tok::Assign | Tok::Semi | Tok::RParen | Tok::Eof
        ) {
            Some(self.parse_type()?)
        } else {
            None
        };
        let mut values = Vec::new();
        if self.eat(&Tok::Assign) {
            values.push(self.expr()?);
            while self.eat(&Tok::Comma) {
                values.push(self.expr()?);
            }
        }
        let span = start.merge(self.prev_span());
        Ok(VarDecl {
            names,
            ty,
            values,
            span,
        })
    }

    fn func_decl(&mut self) -> Result<FuncDecl, ParseError> {
        let start = self.expect(&Tok::Func)?;
        let recv = if self.peek() == &Tok::LParen {
            self.bump();
            let name = self.ident()?;
            let pointer = self.eat(&Tok::Star);
            let type_name = self.ident()?;
            self.expect(&Tok::RParen)?;
            Some(Receiver {
                name,
                type_name,
                pointer,
            })
        } else {
            None
        };
        let name = self.ident()?;
        let params = self.params()?;
        let results = self.results()?;
        let body = self.block()?;
        let span = start.merge(self.prev_span());
        Ok(FuncDecl {
            name,
            recv,
            params,
            results,
            body,
            span,
        })
    }

    fn params(&mut self) -> Result<Vec<Field>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        while self.peek() != &Tok::RParen {
            // `name T` or `name1, name2 T`; unnamed parameter types are
            // also accepted (e.g. in func types), in which case we invent
            // no name and record only the type.
            let mut names = Vec::new();
            loop {
                if matches!(self.peek(), Tok::Ident(_))
                    && matches!(
                        self.peek2(),
                        Tok::Comma
                            | Tok::Ident(_)
                            | Tok::Star
                            | Tok::LBracket
                            | Tok::Map
                            | Tok::Chan
                            | Tok::Func
                            | Tok::Interface
                            | Tok::Struct
                            | Tok::Ellipsis
                    )
                {
                    names.push(self.ident()?);
                    if self.eat(&Tok::Comma) {
                        continue;
                    }
                }
                break;
            }
            // Variadic marker.
            let _ = self.eat(&Tok::Ellipsis);
            let ty = self.parse_type()?;
            if names.is_empty() {
                params.push(Field { name: None, ty });
            } else {
                for n in names {
                    params.push(Field {
                        name: Some(n),
                        ty: ty.clone(),
                    });
                }
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(params)
    }

    fn results(&mut self) -> Result<Vec<Type>, ParseError> {
        match self.peek() {
            Tok::LBrace | Tok::Semi | Tok::Eof => Ok(Vec::new()),
            Tok::LParen => {
                self.bump();
                let mut results = Vec::new();
                while self.peek() != &Tok::RParen {
                    // Accept `name T` result pairs by skipping the name.
                    if matches!(self.peek(), Tok::Ident(_))
                        && matches!(
                            self.peek2(),
                            Tok::Ident(_) | Tok::Star | Tok::LBracket | Tok::Map | Tok::Chan
                        )
                    {
                        self.bump();
                    }
                    results.push(self.parse_type()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
                Ok(results)
            }
            _ => Ok(vec![self.parse_type()?]),
        }
    }

    // ----- types --------------------------------------------------------

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        match self.peek().clone() {
            Tok::Star => {
                self.bump();
                Ok(Type::Pointer(Box::new(self.parse_type()?)))
            }
            Tok::LBracket => {
                self.bump();
                if self.eat(&Tok::RBracket) {
                    Ok(Type::Slice(Box::new(self.parse_type()?)))
                } else {
                    // Array length expression: consume until `]`.
                    let mut depth = 0;
                    loop {
                        match self.peek() {
                            Tok::LBracket => depth += 1,
                            Tok::RBracket if depth == 0 => break,
                            Tok::RBracket => depth -= 1,
                            Tok::Eof => return Err(self.error("unterminated array type")),
                            _ => {}
                        }
                        self.bump();
                    }
                    self.expect(&Tok::RBracket)?;
                    Ok(Type::Array(Box::new(self.parse_type()?)))
                }
            }
            Tok::Map => {
                self.bump();
                self.expect(&Tok::LBracket)?;
                let k = self.parse_type()?;
                self.expect(&Tok::RBracket)?;
                let v = self.parse_type()?;
                Ok(Type::Map(Box::new(k), Box::new(v)))
            }
            Tok::Chan => {
                self.bump();
                let _ = self.eat(&Tok::Arrow);
                Ok(Type::Chan(Box::new(self.parse_type()?)))
            }
            Tok::Arrow => {
                self.bump();
                self.expect(&Tok::Chan)?;
                Ok(Type::Chan(Box::new(self.parse_type()?)))
            }
            Tok::Func => {
                self.bump();
                let _ = self.params()?;
                let _ = match self.peek() {
                    Tok::LBrace
                    | Tok::Semi
                    | Tok::RParen
                    | Tok::RBrace
                    | Tok::Comma
                    | Tok::Eof
                    | Tok::Str(_) => Vec::new(),
                    _ => self.results()?,
                };
                Ok(Type::Func)
            }
            Tok::Interface => {
                self.bump();
                self.expect(&Tok::LBrace)?;
                let mut depth = 1;
                while depth > 0 {
                    match self.bump().tok {
                        Tok::LBrace => depth += 1,
                        Tok::RBrace => depth -= 1,
                        Tok::Eof => return Err(self.error("unterminated interface type")),
                        _ => {}
                    }
                }
                Ok(Type::Interface)
            }
            Tok::Struct => {
                self.bump();
                let _ = self.struct_fields()?;
                Ok(Type::Struct)
            }
            Tok::Ident(first) => {
                self.bump();
                if self.peek() == &Tok::Period && matches!(self.peek2(), Tok::Ident(_)) {
                    self.bump();
                    let name = self.ident()?;
                    Ok(Type::Named {
                        pkg: Some(first),
                        name,
                    })
                } else {
                    Ok(Type::Named {
                        pkg: None,
                        name: first,
                    })
                }
            }
            other => Err(self.error(format!("expected type, found `{other}`"))),
        }
    }

    // ----- statements ---------------------------------------------------

    fn block(&mut self) -> Result<Block, ParseError> {
        let start = self.expect(&Tok::LBrace)?;
        // Inside braces, composite literals are unrestricted again.
        let saved = std::mem::take(&mut self.no_lit_depth);
        let mut stmts = Vec::new();
        self.skip_semis();
        while self.peek() != &Tok::RBrace {
            stmts.push(self.stmt()?);
            self.skip_semis();
        }
        let end = self.expect(&Tok::RBrace)?;
        self.no_lit_depth = saved;
        Ok(Block {
            stmts,
            span: start.merge(end),
        })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Tok::Var => {
                self.bump();
                Ok(Stmt::Var(self.var_body()?))
            }
            Tok::Const => {
                self.bump();
                Ok(Stmt::Var(self.var_body()?))
            }
            Tok::Return => {
                let start = self.bump().span;
                let mut values = Vec::new();
                if !matches!(self.peek(), Tok::Semi | Tok::RBrace) {
                    values.push(self.expr()?);
                    while self.eat(&Tok::Comma) {
                        values.push(self.expr()?);
                    }
                }
                Ok(Stmt::Return {
                    values,
                    span: start.merge(self.prev_span()),
                })
            }
            Tok::Break => {
                let s = self.bump().span;
                // Optional label.
                if matches!(self.peek(), Tok::Ident(_)) {
                    self.bump();
                }
                Ok(Stmt::Break(s))
            }
            Tok::Continue => {
                let s = self.bump().span;
                if matches!(self.peek(), Tok::Ident(_)) {
                    self.bump();
                }
                Ok(Stmt::Continue(s))
            }
            Tok::Defer => {
                let start = self.bump().span;
                let call = self.expr()?;
                let id = self.id();
                Ok(Stmt::Defer {
                    call,
                    id,
                    span: start.merge(self.prev_span()),
                })
            }
            Tok::Go => {
                let start = self.bump().span;
                let call = self.expr()?;
                Ok(Stmt::Go {
                    call,
                    span: start.merge(self.prev_span()),
                })
            }
            Tok::If => self.if_stmt(),
            Tok::For => self.for_stmt(),
            Tok::Switch => self.switch_stmt(),
            Tok::Select => self.select_stmt(),
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            _ => self.simple_stmt(),
        }
    }

    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        let first = self.expr()?;
        match self.peek().clone() {
            Tok::Inc | Tok::Dec => {
                let inc = self.bump().tok == Tok::Inc;
                Ok(Stmt::IncDec {
                    target: first,
                    inc,
                    span: start.merge(self.prev_span()),
                })
            }
            Tok::Arrow => {
                self.bump();
                let value = self.expr()?;
                Ok(Stmt::Send {
                    chan: first,
                    value,
                    span: start.merge(self.prev_span()),
                })
            }
            Tok::Define
            | Tok::Assign
            | Tok::PlusEq
            | Tok::MinusEq
            | Tok::StarEq
            | Tok::SlashEq
            | Tok::PercentEq
            | Tok::AmpEq
            | Tok::PipeEq
            | Tok::CaretEq
            | Tok::ShlEq
            | Tok::ShrEq
            | Tok::AndNotEq
            | Tok::Comma => {
                let mut lhs = vec![first];
                while self.eat(&Tok::Comma) {
                    lhs.push(self.expr()?);
                }
                let define = match self.bump().tok {
                    Tok::Define => true,
                    Tok::Assign
                    | Tok::PlusEq
                    | Tok::MinusEq
                    | Tok::StarEq
                    | Tok::SlashEq
                    | Tok::PercentEq
                    | Tok::AmpEq
                    | Tok::PipeEq
                    | Tok::CaretEq
                    | Tok::ShlEq
                    | Tok::ShrEq
                    | Tok::AndNotEq => false,
                    other => {
                        return Err(self.error(format!("expected assignment, found `{other}`")))
                    }
                };
                let mut rhs = vec![self.expr()?];
                while self.eat(&Tok::Comma) {
                    rhs.push(self.expr()?);
                }
                let id = self.id();
                Ok(Stmt::Assign {
                    lhs,
                    rhs,
                    define,
                    id,
                    span: start.merge(self.prev_span()),
                })
            }
            _ => Ok(Stmt::Expr(first)),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(&Tok::If)?;
        self.no_lit_depth += 1;
        let first = self.simple_stmt()?;
        let (init, cond) = if self.eat(&Tok::Semi) {
            let cond = self.expr()?;
            (Some(Box::new(first)), cond)
        } else {
            match first {
                Stmt::Expr(e) => (None, e),
                other => {
                    return Err(ParseError {
                        message: "if condition must be an expression".into(),
                        offset: other.span().start,
                    })
                }
            }
        };
        self.no_lit_depth -= 1;
        let then = self.block()?;
        let els = if self.eat(&Tok::Else) {
            if self.peek() == &Tok::If {
                Some(Box::new(self.if_stmt()?))
            } else {
                Some(Box::new(Stmt::Block(self.block()?)))
            }
        } else {
            None
        };
        Ok(Stmt::If {
            init,
            cond,
            then,
            els,
            span: start.merge(self.prev_span()),
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(&Tok::For)?;
        self.no_lit_depth += 1;
        // Infinite loop: `for { }`.
        if self.peek() == &Tok::LBrace {
            self.no_lit_depth -= 1;
            let body = self.block()?;
            return Ok(Stmt::For {
                init: None,
                cond: None,
                post: None,
                range_over: None,
                range_vars: Vec::new(),
                body,
                span: start.merge(self.prev_span()),
            });
        }
        // `for range expr` / `for k, v := range expr`.
        if self.peek() == &Tok::Range {
            self.bump();
            let over = self.expr()?;
            self.no_lit_depth -= 1;
            let body = self.block()?;
            return Ok(Stmt::For {
                init: None,
                cond: None,
                post: None,
                range_over: Some(over),
                range_vars: Vec::new(),
                body,
                span: start.merge(self.prev_span()),
            });
        }
        // Detect `k := range e` / `k, v := range e` by scanning ahead for
        // `range` after a define/assign.
        if let Some(range_stmt) = self.try_range_header()? {
            self.no_lit_depth -= 1;
            let body = self.block()?;
            let (range_vars, over) = range_stmt;
            return Ok(Stmt::For {
                init: None,
                cond: None,
                post: None,
                range_over: Some(over),
                range_vars,
                body,
                span: start.merge(self.prev_span()),
            });
        }
        let first = if self.peek() == &Tok::Semi {
            None
        } else {
            Some(self.simple_stmt()?)
        };
        if self.eat(&Tok::Semi) {
            // Three-clause for.
            let cond = if self.peek() == &Tok::Semi {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(&Tok::Semi)?;
            let post = if self.peek() == &Tok::LBrace {
                None
            } else {
                Some(Box::new(self.simple_stmt()?))
            };
            self.no_lit_depth -= 1;
            let body = self.block()?;
            Ok(Stmt::For {
                init: first.map(Box::new),
                cond,
                post,
                range_over: None,
                range_vars: Vec::new(),
                body,
                span: start.merge(self.prev_span()),
            })
        } else {
            // Condition-only loop: `for cond { }`.
            let cond = match first {
                Some(Stmt::Expr(e)) => Some(e),
                None => None,
                Some(other) => {
                    return Err(ParseError {
                        message: "for condition must be an expression".into(),
                        offset: other.span().start,
                    })
                }
            };
            self.no_lit_depth -= 1;
            let body = self.block()?;
            Ok(Stmt::For {
                init: None,
                cond,
                post: None,
                range_over: None,
                range_vars: Vec::new(),
                body,
                span: start.merge(self.prev_span()),
            })
        }
    }

    /// Looks ahead for `ident [, ident] := range` and parses it if present.
    fn try_range_header(&mut self) -> Result<Option<(Vec<String>, Expr)>, ParseError> {
        let save = self.pos;
        let mut vars = Vec::new();
        loop {
            match self.peek().clone() {
                Tok::Ident(name) => {
                    self.bump();
                    vars.push(name);
                }
                _ => {
                    self.pos = save;
                    return Ok(None);
                }
            }
            if self.eat(&Tok::Comma) {
                continue;
            }
            break;
        }
        if !(self.eat(&Tok::Define) || self.eat(&Tok::Assign)) || self.peek() != &Tok::Range {
            self.pos = save;
            return Ok(None);
        }
        self.bump(); // range
        let over = self.expr()?;
        Ok(Some((vars, over)))
    }

    fn switch_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(&Tok::Switch)?;
        self.no_lit_depth += 1;
        let cond = if self.peek() == &Tok::LBrace {
            None
        } else {
            Some(self.expr()?)
        };
        self.no_lit_depth -= 1;
        self.expect(&Tok::LBrace)?;
        let mut cases = Vec::new();
        let mut has_default = false;
        self.skip_semis();
        while self.peek() != &Tok::RBrace {
            let mut guards = Vec::new();
            if self.eat(&Tok::Case) {
                guards.push(self.expr()?);
                while self.eat(&Tok::Comma) {
                    guards.push(self.expr()?);
                }
            } else if self.eat(&Tok::Default) {
                has_default = true;
            } else {
                return Err(self.error("expected `case` or `default`"));
            }
            self.expect(&Tok::Colon)?;
            let mut stmts = Vec::new();
            self.skip_semis();
            while !matches!(self.peek(), Tok::Case | Tok::Default | Tok::RBrace) {
                stmts.push(self.stmt()?);
                self.skip_semis();
            }
            let span = stmts.first().map(Stmt::span).unwrap_or_else(|| self.span());
            cases.push((guards, Block { stmts, span }));
        }
        let end = self.expect(&Tok::RBrace)?;
        Ok(Stmt::Switch {
            cond,
            cases,
            has_default,
            span: start.merge(end),
        })
    }

    fn select_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.expect(&Tok::Select)?;
        self.expect(&Tok::LBrace)?;
        let mut cases = Vec::new();
        self.skip_semis();
        while self.peek() != &Tok::RBrace {
            if self.eat(&Tok::Case) {
                // Communication clause: a simple statement (send/receive).
                let _ = self.simple_stmt()?;
            } else if !self.eat(&Tok::Default) {
                return Err(self.error("expected `case` or `default` in select"));
            }
            self.expect(&Tok::Colon)?;
            let mut stmts = Vec::new();
            self.skip_semis();
            while !matches!(self.peek(), Tok::Case | Tok::Default | Tok::RBrace) {
                stmts.push(self.stmt()?);
                self.skip_semis();
            }
            let span = stmts.first().map(Stmt::span).unwrap_or_else(|| self.span());
            cases.push(Block { stmts, span });
        }
        let end = self.expect(&Tok::RBrace)?;
        Ok(Stmt::Select {
            cases,
            span: start.merge(end),
        })
    }

    // ----- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut left = self.unary_expr()?;
        loop {
            let (prec, op) = match self.peek() {
                Tok::LOr => (1, "||"),
                Tok::LAnd => (2, "&&"),
                Tok::EqEq => (3, "=="),
                Tok::NotEq => (3, "!="),
                Tok::Lt => (3, "<"),
                Tok::Le => (3, "<="),
                Tok::Gt => (3, ">"),
                Tok::Ge => (3, ">="),
                Tok::Plus => (4, "+"),
                Tok::Minus => (4, "-"),
                Tok::Pipe => (4, "|"),
                Tok::Caret => (4, "^"),
                Tok::Star => (5, "*"),
                Tok::Slash => (5, "/"),
                Tok::Percent => (5, "%"),
                Tok::Shl => (5, "<<"),
                Tok::Shr => (5, ">>"),
                Tok::Amp => (5, "&"),
                Tok::AndNot => (5, "&^"),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let right = self.binary_expr(prec + 1)?;
            let span = left.span().merge(right.span());
            left = Expr::Binary {
                op: op.to_string(),
                left: Box::new(left),
                right: Box::new(right),
                span,
            };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        let op = match self.peek() {
            Tok::Minus => Some(UnaryOp::Neg),
            Tok::Not => Some(UnaryOp::Not),
            Tok::Amp => Some(UnaryOp::Addr),
            Tok::Star => Some(UnaryOp::Deref),
            Tok::Arrow => Some(UnaryOp::Recv),
            Tok::Caret => Some(UnaryOp::BitNot),
            Tok::Plus => {
                self.bump();
                return self.unary_expr();
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.unary_expr()?;
            let id = self.id();
            let span = start.merge(operand.span());
            return Ok(Expr::Unary {
                op,
                operand: Box::new(operand),
                id,
                span,
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.operand()?;
        loop {
            match self.peek() {
                Tok::Period => {
                    self.bump();
                    let field = self.ident()?;
                    let id = self.id();
                    let span = expr.span().merge(self.prev_span());
                    expr = Expr::Selector {
                        base: Box::new(expr),
                        field,
                        id,
                        span,
                    };
                }
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    while self.peek() != &Tok::RParen {
                        // Composite literals are fine inside call parens.
                        let saved = std::mem::take(&mut self.no_lit_depth);
                        let arg = self.expr();
                        self.no_lit_depth = saved;
                        args.push(arg?);
                        let _ = self.eat(&Tok::Ellipsis);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    let end = self.expect(&Tok::RParen)?;
                    let id = self.id();
                    let span = expr.span().merge(end);
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                        id,
                        span,
                    };
                }
                Tok::LBracket => {
                    self.bump();
                    let saved = std::mem::take(&mut self.no_lit_depth);
                    // Index or slice expression a[lo:hi]; we flatten slices
                    // into Index on the low bound for analysis purposes.
                    let index = if self.peek() == &Tok::Colon {
                        Expr::Int {
                            value: 0,
                            span: self.span(),
                        }
                    } else {
                        self.expr()?
                    };
                    if self.eat(&Tok::Colon) {
                        if !matches!(self.peek(), Tok::RBracket) {
                            let _ = self.expr()?;
                        }
                        if self.eat(&Tok::Colon) && !matches!(self.peek(), Tok::RBracket) {
                            let _ = self.expr()?;
                        }
                    }
                    self.no_lit_depth = saved;
                    let end = self.expect(&Tok::RBracket)?;
                    let span = expr.span().merge(end);
                    expr = Expr::Index {
                        base: Box::new(expr),
                        index: Box::new(index),
                        span,
                    };
                }
                Tok::LBrace if self.no_lit_depth == 0 && is_type_expr(&expr) => {
                    // Composite literal of a named type.
                    let ty = expr_to_type(&expr);
                    let elems = self.composite_body()?;
                    let id = self.id();
                    let span = expr.span().merge(self.prev_span());
                    expr = Expr::Composite {
                        ty,
                        elems,
                        id,
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn composite_body(&mut self) -> Result<Vec<(Option<String>, Expr)>, ParseError> {
        self.expect(&Tok::LBrace)?;
        let saved = std::mem::take(&mut self.no_lit_depth);
        let mut elems = Vec::new();
        self.skip_semis();
        while self.peek() != &Tok::RBrace {
            // `key: value` or bare value. Keys may be identifiers or
            // literal expressions (map literals); only ident keys are kept.
            let key = if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == &Tok::Colon {
                let k = self.ident()?;
                self.expect(&Tok::Colon)?;
                Some(k)
            } else {
                let checkpoint = self.pos;
                let e = self.expr()?;
                if self.eat(&Tok::Colon) {
                    // Non-ident key (e.g. string); value follows.
                    let _ = e;
                    None
                } else {
                    self.pos = checkpoint;
                    None
                }
            };
            let value = if self.peek() == &Tok::LBrace {
                // Nested untyped composite element `{...}`.
                let elems = self.composite_body()?;
                let id = self.id();
                Expr::Composite {
                    ty: Type::Struct,
                    elems,
                    id,
                    span: self.prev_span(),
                }
            } else {
                self.expr()?
            };
            elems.push((key, value));
            self.skip_semis();
            if !self.eat(&Tok::Comma) {
                self.skip_semis();
                if self.peek() != &Tok::RBrace {
                    continue;
                }
                break;
            }
            self.skip_semis();
        }
        self.expect(&Tok::RBrace)?;
        self.no_lit_depth = saved;
        Ok(elems)
    }

    fn operand(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                let id = self.id();
                match name.as_str() {
                    "true" => Ok(Expr::Bool { value: true, span }),
                    "false" => Ok(Expr::Bool { value: false, span }),
                    _ => Ok(Expr::Ident { name, id, span }),
                }
            }
            Tok::Int(value) => {
                self.bump();
                Ok(Expr::Int { value, span })
            }
            Tok::Float(value) => {
                self.bump();
                Ok(Expr::Float { value, span })
            }
            Tok::Str(value) => {
                self.bump();
                Ok(Expr::Str { value, span })
            }
            Tok::Rune(value) => {
                self.bump();
                Ok(Expr::Int {
                    value: value as i64,
                    span,
                })
            }
            Tok::LParen => {
                self.bump();
                let saved = std::mem::take(&mut self.no_lit_depth);
                let inner = self.expr()?;
                self.no_lit_depth = saved;
                self.expect(&Tok::RParen)?;
                Ok(inner)
            }
            Tok::Func => {
                self.bump();
                let params = self.params()?;
                let results = match self.peek() {
                    Tok::LBrace => Vec::new(),
                    _ => self.results()?,
                };
                let saved = std::mem::take(&mut self.no_lit_depth);
                let body = self.block()?;
                self.no_lit_depth = saved;
                let id = self.id();
                Ok(Expr::FuncLit {
                    params,
                    results,
                    body: Box::new(body),
                    id,
                    span: span.merge(self.prev_span()),
                })
            }
            Tok::LBracket | Tok::Map => {
                // Slice/map composite literal or conversion: `[]T{...}`.
                let ty = self.parse_type()?;
                if self.peek() == &Tok::LBrace {
                    let elems = self.composite_body()?;
                    let id = self.id();
                    Ok(Expr::Composite {
                        ty,
                        elems,
                        id,
                        span: span.merge(self.prev_span()),
                    })
                } else if self.peek() == &Tok::LParen {
                    // Conversion like []byte(s): treat as a call on a
                    // synthetic identifier.
                    self.bump();
                    let arg = self.expr()?;
                    let end = self.expect(&Tok::RParen)?;
                    let tid = self.id();
                    let id = self.id();
                    Ok(Expr::Call {
                        callee: Box::new(Expr::Ident {
                            name: "byteslice".into(),
                            id: tid,
                            span,
                        }),
                        args: vec![arg],
                        id,
                        span: span.merge(end),
                    })
                } else {
                    // A bare type in expression position (make/new args).
                    Ok(Expr::TypeLit {
                        ty,
                        span: span.merge(self.prev_span()),
                    })
                }
            }
            Tok::Chan => {
                let ty = self.parse_type()?;
                Ok(Expr::TypeLit {
                    ty,
                    span: span.merge(self.prev_span()),
                })
            }
            other => Err(self.error(format!("unexpected token `{other}` in expression"))),
        }
    }
}

/// Whether an expression can syntactically denote a type in a composite
/// literal head (identifier or qualified identifier).
fn is_type_expr(e: &Expr) -> bool {
    match e {
        Expr::Ident { name, .. } => name.chars().next().is_some_and(char::is_alphabetic),
        Expr::Selector { base, .. } => matches!(base.as_ref(), Expr::Ident { .. }),
        _ => false,
    }
}

fn expr_to_type(e: &Expr) -> Type {
    match e {
        Expr::Ident { name, .. } => Type::Named {
            pkg: None,
            name: name.clone(),
        },
        Expr::Selector { base, field, .. } => {
            if let Expr::Ident { name, .. } = base.as_ref() {
                Type::Named {
                    pkg: Some(name.clone()),
                    name: field.clone(),
                }
            } else {
                Type::Struct
            }
        }
        _ => Type::Struct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> File {
        parse_file(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"))
    }

    #[test]
    fn minimal_file() {
        let f = parse("package main\n\nfunc main() {\n}\n");
        assert_eq!(f.package, "main");
        assert_eq!(f.funcs().count(), 1);
    }

    #[test]
    fn imports_single_and_grouped() {
        let f =
            parse("package p\nimport \"sync\"\nimport (\n\t\"fmt\"\n\tio \"os\"\n)\nfunc f() {}\n");
        assert_eq!(f.imports, vec!["sync", "fmt", "os"]);
    }

    #[test]
    fn struct_with_mutex_and_embedded() {
        let src = r#"
package p

import "sync"

type Counter struct {
	mu    sync.Mutex
	n     int
	cache map[string]int
}

type Anon struct {
	*sync.Mutex
	val int
}
"#;
        let f = parse(src);
        let mut structs = f.decls.iter().filter_map(|d| match d {
            Decl::TypeStruct(s) => Some(s),
            _ => None,
        });
        let c = structs.next().unwrap();
        assert_eq!(c.name, "Counter");
        assert_eq!(c.fields.len(), 3);
        assert!(c.fields[0].ty.is_mutex());
        assert!(!c.fields[0].is_embedded());
        let a = structs.next().unwrap();
        assert_eq!(a.name, "Anon");
        assert!(a.fields[0].is_embedded());
        assert_eq!(a.fields[0].access_name(), "Mutex");
        assert!(a.fields[0].ty.is_mutex());
    }

    #[test]
    fn method_with_lock_unlock() {
        let src = r#"
package p

import "sync"

type C struct {
	mu sync.Mutex
	n  int
}

func (c *C) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}
"#;
        let f = parse(src);
        let inc = f.funcs().find(|fd| fd.name == "Inc").unwrap();
        let recv = inc.recv.as_ref().unwrap();
        assert!(recv.pointer);
        assert_eq!(recv.type_name, "C");
        assert_eq!(inc.body.stmts.len(), 3);
        if let Stmt::Expr(call) = &inc.body.stmts[0] {
            let (base, method) = call.as_method_call().unwrap();
            assert_eq!(method, "Lock");
            assert!(matches!(base, Expr::Selector { field, .. } if field == "mu"));
        } else {
            panic!("expected expression statement");
        }
    }

    #[test]
    fn defer_unlock() {
        let src = "package p\nfunc f() {\n\tm.Lock()\n\tdefer m.Unlock()\n\twork()\n}\n";
        let f = parse(src);
        let fd = f.funcs().next().unwrap();
        assert!(matches!(fd.body.stmts[1], Stmt::Defer { .. }));
    }

    #[test]
    fn if_else_chain_and_init() {
        let src = r#"
package p
func f(x int) int {
	if v := g(); v > 0 {
		return v
	} else if x == 2 {
		return 2
	} else {
		return 0
	}
}
"#;
        let f = parse(src);
        let fd = f.funcs().next().unwrap();
        if let Stmt::If { init, els, .. } = &fd.body.stmts[0] {
            assert!(init.is_some());
            assert!(els.is_some());
        } else {
            panic!("expected if");
        }
    }

    #[test]
    fn for_forms() {
        let src = r#"
package p
func f(xs []int, m map[string]int) {
	for {
		break
	}
	for i := 0; i < 10; i++ {
		use(i)
	}
	for len(xs) > 0 {
		xs = xs[1:]
	}
	for k, v := range m {
		use2(k, v)
	}
	for range xs {
		tick()
	}
}
"#;
        let f = parse(src);
        let fd = f.funcs().next().unwrap();
        assert_eq!(fd.body.stmts.len(), 5);
        let ranges = fd
            .body
            .stmts
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Stmt::For {
                        range_over: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(ranges, 2);
    }

    #[test]
    fn anonymous_goroutine() {
        let src = r#"
package p
func f() {
	go func() {
		m.Lock()
		n++
		m.Unlock()
	}()
}
"#;
        let f = parse(src);
        let fd = f.funcs().next().unwrap();
        if let Stmt::Go { call, .. } = &fd.body.stmts[0] {
            if let Expr::Call { callee, .. } = call {
                assert!(matches!(callee.as_ref(), Expr::FuncLit { .. }));
            } else {
                panic!("expected call of func literal");
            }
        } else {
            panic!("expected go statement");
        }
    }

    #[test]
    fn composite_literals() {
        let src = r#"
package p
func f() {
	a := Point{x: 1, y: 2}
	b := sync.Mutex{}
	c := []int{1, 2, 3}
	d := map[string]int{"k": 1}
	use(a, b, c, d)
}
"#;
        let f = parse(src);
        assert_eq!(f.funcs().count(), 1);
    }

    #[test]
    fn no_composite_lit_in_if_condition() {
        // `p == q` followed by a block: the `{` must open the block.
        let src = "package p\nfunc f(p int, q int) {\n\tif p == q {\n\t\twork()\n\t}\n}\n";
        parse(src);
    }

    #[test]
    fn switch_and_select() {
        let src = r#"
package p
func f(x int, ch chan int) {
	switch x {
	case 1, 2:
		one()
	default:
		other()
	}
	select {
	case v := <-ch:
		use(v)
	default:
		none()
	}
}
"#;
        let f = parse(src);
        let fd = f.funcs().next().unwrap();
        assert!(matches!(
            fd.body.stmts[0],
            Stmt::Switch {
                has_default: true,
                ..
            }
        ));
        assert!(matches!(fd.body.stmts[1], Stmt::Select { .. }));
    }

    #[test]
    fn hand_over_hand_shape() {
        let src = r#"
package p
func traverse(head *Node) {
	a := head
	a.mu.Lock()
	for a.next != nil {
		b := a.next
		b.mu.Lock()
		a.mu.Unlock()
		a = b
	}
	a.mu.Unlock()
}
"#;
        parse(src);
    }

    #[test]
    fn operator_precedence() {
        let src = "package p\nfunc f() int {\n\treturn 1 + 2*3\n}\n";
        let f = parse(src);
        let fd = f.funcs().next().unwrap();
        if let Stmt::Return { values, .. } = &fd.body.stmts[0] {
            if let Expr::Binary { op, right, .. } = &values[0] {
                assert_eq!(op, "+");
                assert!(matches!(right.as_ref(), Expr::Binary { op, .. } if op == "*"));
            } else {
                panic!("expected binary expression");
            }
        }
    }

    #[test]
    fn channel_ops() {
        let src = "package p\nfunc f(ch chan int) {\n\tch <- 1\n\tv := <-ch\n\tuse(v)\n}\n";
        let f = parse(src);
        let fd = f.funcs().next().unwrap();
        assert!(matches!(fd.body.stmts[0], Stmt::Send { .. }));
    }

    #[test]
    fn var_decls_and_consts() {
        let src = r#"
package p

var global int = 3

const (
	a = 1
	b = 2
)

var m sync.Mutex

func f() {
	var local, other string
	use(local, other)
}
"#;
        let f = parse(src);
        assert!(f.decls.iter().any(|d| matches!(d, Decl::Var(_))));
        assert!(f.decls.iter().any(|d| matches!(d, Decl::Const(_))));
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = parse_file("package p\nfunc f() { if }").unwrap_err();
        assert!(err.offset > 0);
    }
}
