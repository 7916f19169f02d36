//! Tokenizer with Go's automatic semicolon insertion.

use std::fmt;

use crate::token::{Span, Tok, Token};

/// A lexical error with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the source.
    pub offset: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Streaming tokenizer for the Go subset.
pub struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    last: Option<Tok>,
}

impl<'s> Lexer<'s> {
    /// Creates a lexer over `src`.
    #[must_use]
    pub fn new(src: &'s str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            last: None,
        }
    }

    /// Tokenizes the whole input, appending a final [`Tok::Eof`].
    pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_token()?;
            let done = t.tok == Tok::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            offset: self.pos as u32,
        }
    }

    /// Skips whitespace and comments; returns `true` if a newline (or a
    /// comment containing one) was crossed, for semicolon insertion.
    fn skip_trivia(&mut self) -> Result<bool, LexError> {
        let mut newline = false;
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'\n' => {
                    self.pos += 1;
                    newline = true;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos + 1 >= self.src.len() {
                            return Err(LexError {
                                message: "unterminated block comment".into(),
                                offset: start as u32,
                            });
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        if self.peek() == b'\n' {
                            newline = true;
                        }
                        self.pos += 1;
                    }
                }
                _ => return Ok(newline),
            }
        }
    }

    /// Produces the next token, applying automatic semicolon insertion.
    pub fn next_token(&mut self) -> Result<Token, LexError> {
        let before = self.pos;
        let newline = self.skip_trivia()?;
        if newline
            || (self.pos >= self.src.len() && before < self.pos || self.pos >= self.src.len())
        {
            // Insert a semicolon at a newline (or EOF) when the previous
            // token allows it.
            let eligible = self.last.as_ref().map(Tok::triggers_asi).unwrap_or(false);
            if eligible && (newline || self.pos >= self.src.len()) {
                self.last = Some(Tok::Semi);
                let at = self.pos as u32;
                return Ok(Token {
                    tok: Tok::Semi,
                    span: Span::new(at, at),
                });
            }
        }
        if self.pos >= self.src.len() {
            return Ok(Token {
                tok: Tok::Eof,
                span: Span::new(self.pos as u32, self.pos as u32),
            });
        }
        let start = self.pos as u32;
        let tok = self.scan()?;
        self.last = Some(tok.clone());
        Ok(Token {
            tok,
            span: Span::new(start, self.pos as u32),
        })
    }

    fn scan(&mut self) -> Result<Tok, LexError> {
        let c = self.peek();
        match c {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => Ok(self.scan_word()),
            b'0'..=b'9' => self.scan_number(),
            b'"' => self.scan_string(),
            b'`' => self.scan_raw_string(),
            b'\'' => self.scan_rune(),
            _ => self.scan_operator(),
        }
    }

    fn scan_word(&mut self) -> Tok {
        let start = self.pos;
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        let word = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii word");
        Tok::from_word(word)
    }

    fn scan_number(&mut self) -> Result<Tok, LexError> {
        let start = self.pos;
        if self.peek() == b'0' && matches!(self.peek2(), b'x' | b'X') {
            self.pos += 2;
            let digits = self.pos;
            while self.peek().is_ascii_hexdigit() || self.peek() == b'_' {
                self.pos += 1;
            }
            let text: String = std::str::from_utf8(&self.src[digits..self.pos])
                .expect("ascii")
                .chars()
                .filter(|&ch| ch != '_')
                .collect();
            let v = i64::from_str_radix(&text, 16)
                .map_err(|e| self.error(format!("bad hex literal: {e}")))?;
            return Ok(Tok::Int(v));
        }
        while self.peek().is_ascii_digit() || self.peek() == b'_' {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            is_float = true;
            self.pos += 1;
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), b'e' | b'E') {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), b'+' | b'-') {
                self.pos += 1;
            }
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        let text: String = std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii")
            .chars()
            .filter(|&ch| ch != '_')
            .collect();
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|e| self.error(format!("bad float: {e}")))?;
            Ok(Tok::Float(v))
        } else {
            let v: i64 = text
                .parse()
                .map_err(|e| self.error(format!("bad int: {e}")))?;
            Ok(Tok::Int(v))
        }
    }

    fn scan_string(&mut self) -> Result<Tok, LexError> {
        let start = self.pos;
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            if self.pos >= self.src.len() {
                return Err(LexError {
                    message: "unterminated string".into(),
                    offset: start as u32,
                });
            }
            match self.bump() {
                b'"' => return Ok(Tok::Str(out)),
                b'\\' => {
                    let esc = self.bump();
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'\\' => '\\',
                        b'"' => '"',
                        b'\'' => '\'',
                        b'0' => '\0',
                        other => {
                            return Err(self.error(format!("unknown escape \\{}", other as char)))
                        }
                    });
                }
                b'\n' => {
                    return Err(LexError {
                        message: "newline in string".into(),
                        offset: start as u32,
                    })
                }
                other => out.push(other as char),
            }
        }
    }

    fn scan_raw_string(&mut self) -> Result<Tok, LexError> {
        let start = self.pos;
        self.pos += 1; // backquote
        let begin = self.pos;
        while self.pos < self.src.len() && self.peek() != b'`' {
            self.pos += 1;
        }
        if self.pos >= self.src.len() {
            return Err(LexError {
                message: "unterminated raw string".into(),
                offset: start as u32,
            });
        }
        let text = std::str::from_utf8(&self.src[begin..self.pos])
            .map_err(|_| self.error("invalid utf-8 in raw string"))?
            .to_string();
        self.pos += 1; // closing backquote
        Ok(Tok::Str(text))
    }

    fn scan_rune(&mut self) -> Result<Tok, LexError> {
        self.pos += 1; // opening quote
        let c = match self.bump() {
            b'\\' => match self.bump() {
                b'n' => '\n',
                b't' => '\t',
                b'\\' => '\\',
                b'\'' => '\'',
                b'0' => '\0',
                other => return Err(self.error(format!("unknown rune escape \\{}", other as char))),
            },
            other => other as char,
        };
        if self.bump() != b'\'' {
            return Err(self.error("unterminated rune literal"));
        }
        Ok(Tok::Rune(c))
    }

    fn scan_operator(&mut self) -> Result<Tok, LexError> {
        macro_rules! two {
            ($second:literal, $long:expr, $short:expr) => {{
                self.pos += 1;
                if self.peek() == $second {
                    self.pos += 1;
                    $long
                } else {
                    $short
                }
            }};
        }
        let tok = match self.peek() {
            b'+' => {
                self.pos += 1;
                match self.peek() {
                    b'+' => {
                        self.pos += 1;
                        Tok::Inc
                    }
                    b'=' => {
                        self.pos += 1;
                        Tok::PlusEq
                    }
                    _ => Tok::Plus,
                }
            }
            b'-' => {
                self.pos += 1;
                match self.peek() {
                    b'-' => {
                        self.pos += 1;
                        Tok::Dec
                    }
                    b'=' => {
                        self.pos += 1;
                        Tok::MinusEq
                    }
                    _ => Tok::Minus,
                }
            }
            b'*' => two!(b'=', Tok::StarEq, Tok::Star),
            b'/' => two!(b'=', Tok::SlashEq, Tok::Slash),
            b'%' => two!(b'=', Tok::PercentEq, Tok::Percent),
            b'^' => two!(b'=', Tok::CaretEq, Tok::Caret),
            b'&' => {
                self.pos += 1;
                match self.peek() {
                    b'&' => {
                        self.pos += 1;
                        Tok::LAnd
                    }
                    b'=' => {
                        self.pos += 1;
                        Tok::AmpEq
                    }
                    b'^' => {
                        self.pos += 1;
                        if self.peek() == b'=' {
                            self.pos += 1;
                            Tok::AndNotEq
                        } else {
                            Tok::AndNot
                        }
                    }
                    _ => Tok::Amp,
                }
            }
            b'|' => {
                self.pos += 1;
                match self.peek() {
                    b'|' => {
                        self.pos += 1;
                        Tok::LOr
                    }
                    b'=' => {
                        self.pos += 1;
                        Tok::PipeEq
                    }
                    _ => Tok::Pipe,
                }
            }
            b'<' => {
                self.pos += 1;
                match self.peek() {
                    b'-' => {
                        self.pos += 1;
                        Tok::Arrow
                    }
                    b'=' => {
                        self.pos += 1;
                        Tok::Le
                    }
                    b'<' => {
                        self.pos += 1;
                        if self.peek() == b'=' {
                            self.pos += 1;
                            Tok::ShlEq
                        } else {
                            Tok::Shl
                        }
                    }
                    _ => Tok::Lt,
                }
            }
            b'>' => {
                self.pos += 1;
                match self.peek() {
                    b'=' => {
                        self.pos += 1;
                        Tok::Ge
                    }
                    b'>' => {
                        self.pos += 1;
                        if self.peek() == b'=' {
                            self.pos += 1;
                            Tok::ShrEq
                        } else {
                            Tok::Shr
                        }
                    }
                    _ => Tok::Gt,
                }
            }
            b'=' => two!(b'=', Tok::EqEq, Tok::Assign),
            b'!' => two!(b'=', Tok::NotEq, Tok::Not),
            b':' => two!(b'=', Tok::Define, Tok::Colon),
            b'.' => {
                self.pos += 1;
                if self.peek() == b'.' && self.peek2() == b'.' {
                    self.pos += 2;
                    Tok::Ellipsis
                } else {
                    Tok::Period
                }
            }
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'[' => {
                self.pos += 1;
                Tok::LBracket
            }
            b']' => {
                self.pos += 1;
                Tok::RBracket
            }
            b'{' => {
                self.pos += 1;
                Tok::LBrace
            }
            b'}' => {
                self.pos += 1;
                Tok::RBrace
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b';' => {
                self.pos += 1;
                Tok::Semi
            }
            other => return Err(self.error(format!("unexpected character {:?}", other as char))),
        };
        Ok(tok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        Lexer::tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| t.tok)
            .collect()
    }

    #[test]
    fn lock_call_sequence() {
        assert_eq!(
            toks("m.Lock()"),
            vec![
                Tok::Ident("m".into()),
                Tok::Period,
                Tok::Ident("Lock".into()),
                Tok::LParen,
                Tok::RParen,
                Tok::Semi, // ASI at EOF
                Tok::Eof
            ]
        );
    }

    #[test]
    fn semicolon_insertion_at_newline() {
        let t = toks("x := 1\ny := 2\n");
        let semis = t.iter().filter(|t| **t == Tok::Semi).count();
        assert_eq!(semis, 2);
    }

    #[test]
    fn no_asi_after_operators() {
        // A binary expression split across lines must not get a semicolon.
        let t = toks("x := 1 +\n2\n");
        let idx_plus = t.iter().position(|t| *t == Tok::Plus).unwrap();
        assert_ne!(t[idx_plus + 1], Tok::Semi);
    }

    #[test]
    fn comments_are_skipped_but_newlines_count() {
        let t = toks("x := 1 // trailing\ny := 2");
        assert!(t.contains(&Tok::Semi));
        let t2 = toks("x := 1 /* block\ncomment */ \ny := 2");
        assert_eq!(t2.iter().filter(|t| **t == Tok::Semi).count(), 2);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks(r#""a\nb""#)[0], Tok::Str("a\nb".into()));
        assert_eq!(toks("`raw\\n`")[0], Tok::Str("raw\\n".into()));
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42")[0], Tok::Int(42));
        assert_eq!(toks("0x1F")[0], Tok::Int(31));
        assert_eq!(toks("3.5")[0], Tok::Float(3.5));
        assert_eq!(toks("1_000")[0], Tok::Int(1000));
    }

    #[test]
    fn compound_operators() {
        assert_eq!(
            toks("a &^= b <<= <- ... :=")[..7],
            [
                Tok::Ident("a".into()),
                Tok::AndNotEq,
                Tok::Ident("b".into()),
                Tok::ShlEq,
                Tok::Arrow,
                Tok::Ellipsis,
                Tok::Define,
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(Lexer::tokenize("\"abc").is_err());
        assert!(Lexer::tokenize("/* abc").is_err());
    }
}
