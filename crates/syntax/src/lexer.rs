//! The `.lssa` lexer: S-expression tokens, every one carrying its byte span.
//!
//! Token classes are deliberately small — parentheses, atoms, and string
//! literals. `;` starts a comment running to end of line. Atoms are maximal
//! runs of characters that are not whitespace, parentheses, quotes, or `;`;
//! the parser decides whether an atom is a variable (`x12`), a join label
//! (`j3`), an integer, a keyword (`def`, `let`, …), or a function name.
//!
//! Tokens borrow from the source: an atom is a `&'a str` slice of the text
//! it was read from, so lexing allocates only the token vector and the
//! decoded payload of each string literal (escapes make those differ from
//! the source bytes).

use crate::diag::{Diagnostic, E_LEX_CHAR, E_LEX_STRING};
use crate::span::Span;

/// What kind of token this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// A bare atom (identifier, number, keyword), borrowed from the source.
    Atom(&'a str),
    /// A string literal, with escapes already decoded.
    Str(String),
}

/// One token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token's class and payload.
    pub kind: TokenKind<'a>,
    /// Byte range in the source.
    pub span: Span,
}

/// Splits a source into tokens, one at a time: the reader consumes them
/// without a token vector. Lexical errors are collected in
/// [`Lexer::diagnostics`] (and the offending bytes skipped) so one bad
/// character does not hide later diagnostics.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    /// Lexical errors met so far, in source order.
    pub diagnostics: Vec<Diagnostic>,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            diagnostics: Vec::new(),
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let src = self.src;
        let bytes = src.as_bytes();
        let mut i = self.pos;
        let token = loop {
            let Some(&b) = bytes.get(i) else {
                break None;
            };
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => i += 1,
                b';' => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                b'(' | b')' => {
                    let kind = if b == b'(' {
                        TokenKind::LParen
                    } else {
                        TokenKind::RParen
                    };
                    i += 1;
                    break Some(Token {
                        kind,
                        span: Span::new(i as u32 - 1, i as u32),
                    });
                }
                b'"' => {
                    let (len, token, err) = lex_string(&src[i..], i as u32);
                    self.diagnostics.extend(err);
                    i += len;
                    if token.is_some() {
                        break token;
                    }
                }
                _ if is_atom_byte(b) => {
                    let start = i;
                    while i < bytes.len() && is_atom_byte(bytes[i]) {
                        i += 1;
                    }
                    break Some(Token {
                        kind: TokenKind::Atom(&src[start..i]),
                        span: Span::new(start as u32, i as u32),
                    });
                }
                _ => {
                    // A control byte or other character no token can start
                    // with. Skip the whole (possibly multi-byte) character.
                    let c = src[i..].chars().next().expect("in-bounds char");
                    self.diagnostics.push(Diagnostic::new(
                        E_LEX_CHAR,
                        format!("unexpected character {:?}", c),
                        Span::new(i as u32, (i + c.len_utf8()) as u32),
                    ));
                    i += c.len_utf8();
                }
            }
        };
        self.pos = i;
        token
    }
}

/// Whether `b` can appear inside a bare atom.
fn is_atom_byte(b: u8) -> bool {
    !matches!(b, b' ' | b'\t' | b'\r' | b'\n' | b'(' | b')' | b'"' | b';')
        && (0x21..0x7f).contains(&b)
}

/// Lexes one string literal starting at `src[0] == '"'`. Returns the number
/// of bytes consumed, the token (absent only when the literal is
/// unterminated), and the literal's first error.
///
/// On a bad escape the first error is recorded but scanning continues to the
/// closing quote, so the rest of the input still lexes token-aligned, and
/// the literal still yields its token, so the enclosing form keeps its
/// shape and the error is not echoed by the parser.
fn lex_string(src: &str, base: u32) -> (usize, Option<Token<'static>>, Option<Diagnostic>) {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes[0], b'"');
    let mut out = String::new();
    let mut err: Option<Diagnostic> = None;
    let mut i = 1usize;
    loop {
        let Some(&b) = bytes.get(i) else {
            let unterminated = Diagnostic::new(
                E_LEX_STRING,
                "unterminated string literal".to_string(),
                Span::new(base, base + i as u32),
            );
            return (i, None, Some(err.unwrap_or(unterminated)));
        };
        match b {
            b'"' => {
                i += 1;
                let token = Token {
                    kind: TokenKind::Str(out),
                    span: Span::new(base, base + i as u32),
                };
                return (i, Some(token), err);
            }
            b'\\' => {
                let escape_start = i;
                i += 1;
                match bytes.get(i).copied() {
                    Some(b'"') => {
                        out.push('"');
                        i += 1;
                    }
                    Some(b'\\') => {
                        out.push('\\');
                        i += 1;
                    }
                    Some(b'n') => {
                        out.push('\n');
                        i += 1;
                    }
                    Some(b't') => {
                        out.push('\t');
                        i += 1;
                    }
                    Some(b'r') => {
                        out.push('\r');
                        i += 1;
                    }
                    Some(b'u') => {
                        // \u{HEX}. The closing brace must come before the
                        // next quote: a `}` past it belongs to later tokens.
                        i += 1;
                        let ok = bytes.get(i) == Some(&b'{');
                        let close = bytes[i..]
                            .iter()
                            .position(|&c| c == b'}' || c == b'"')
                            .map(|off| i + off)
                            .filter(|&end| bytes[end] == b'}');
                        match (ok, close) {
                            (true, Some(close)) => {
                                let hex = &src[i + 1..close];
                                match u32::from_str_radix(hex, 16).ok().and_then(char::from_u32) {
                                    Some(c) => {
                                        out.push(c);
                                        i = close + 1;
                                    }
                                    None => {
                                        err.get_or_insert_with(|| {
                                            Diagnostic::new(
                                                E_LEX_STRING,
                                                format!("invalid unicode escape \\u{{{hex}}}"),
                                                Span::new(
                                                    base + escape_start as u32,
                                                    base + close as u32 + 1,
                                                ),
                                            )
                                        });
                                        i = close + 1;
                                    }
                                }
                            }
                            _ => {
                                err.get_or_insert_with(|| {
                                    Diagnostic::new(
                                        E_LEX_STRING,
                                        "malformed \\u{...} escape".to_string(),
                                        Span::new(base + escape_start as u32, base + i as u32),
                                    )
                                });
                            }
                        }
                    }
                    other => {
                        let len = other.map(|_| 2).unwrap_or(1);
                        err.get_or_insert_with(|| {
                            Diagnostic::new(
                                E_LEX_STRING,
                                "invalid escape sequence".to_string(),
                                Span::new(
                                    base + escape_start as u32,
                                    base + (escape_start + len) as u32,
                                ),
                            )
                        });
                        if other.is_some() {
                            i += 1;
                        }
                    }
                }
            }
            _ => {
                let c = src[i..].chars().next().expect("in-bounds char");
                out.push(c);
                i += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> (Vec<Token<'_>>, Vec<Diagnostic>) {
        let mut lexer = Lexer::new(src);
        let tokens = lexer.by_ref().collect();
        (tokens, lexer.diagnostics)
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        let (tokens, diags) = lex(src);
        assert!(diags.is_empty(), "{diags:?}");
        tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokens_and_spans() {
        let (tokens, diags) = lex("(ret x0) ; trailing comment\n42");
        assert!(diags.is_empty());
        assert_eq!(tokens.len(), 5);
        assert_eq!(tokens[0].kind, TokenKind::LParen);
        assert_eq!(tokens[1].kind, TokenKind::Atom("ret"));
        assert_eq!(tokens[1].span, Span::new(1, 4));
        assert_eq!(tokens[2].kind, TokenKind::Atom("x0"));
        assert_eq!(tokens[3].kind, TokenKind::RParen);
        assert_eq!(tokens[4].kind, TokenKind::Atom("42"));
        assert_eq!(tokens[4].span, Span::new(28, 30));
    }

    #[test]
    fn strings_decode_escapes() {
        assert_eq!(
            kinds(r#""a\nb\t\"\\\u{3b1}""#),
            vec![TokenKind::Str("a\nb\t\"\\α".into())]
        );
    }

    #[test]
    fn unterminated_string_reported() {
        let (_, diags) = lex("\"abc");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_LEX_STRING);
        assert_eq!(diags[0].span, Some(Span::new(0, 4)));
    }

    #[test]
    fn bad_escape_reported() {
        let (_, diags) = lex(r#""a\q""#);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_LEX_STRING);
    }

    #[test]
    fn unicode_escape_ends_at_its_own_literal() {
        // The `}` that closes nothing in `main` sits in the next function's
        // literal; the escape must not reach it.
        let src = "(def main () (let x0 \"\\u{41\" (ret x0)))\n\
                   (def f () (let x0 \"}\" (ret x0)))";
        let diags = crate::check_source(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, E_LEX_STRING);
        assert_eq!(diags[0].span, Some(Span::new(22, 24)), "ends inside line 1");
        let (tokens, _) = lex(src);
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Str("}".into())));
    }

    #[test]
    fn stray_control_character_reported_and_skipped() {
        let (tokens, diags) = lex("(ret \u{1} x0)");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_LEX_CHAR);
        assert_eq!(tokens.len(), 4, "lexing continues after the bad byte");
    }

    #[test]
    fn negative_numbers_and_rich_atoms() {
        assert_eq!(
            kinds("-42 lean_nat_add else"),
            vec![
                TokenKind::Atom("-42"),
                TokenKind::Atom("lean_nat_add"),
                TokenKind::Atom("else"),
            ]
        );
    }
}
