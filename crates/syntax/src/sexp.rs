//! The S-expression reader: tokens → spanned trees.
//!
//! This is the only place parenthesis structure is interpreted; everything
//! above ([`crate::parse`]) works on [`Sexp`] trees and never sees tokens.
//!
//! A tree borrows from the text it was read from: atoms are `&'a str`
//! slices of the source (see [`crate::lexer`]), so a [`Sexp<'a>`] lives no
//! longer than that text. Reading keeps an explicit stack of the lists still
//! open instead of recursing, and dropping a tree frees nested lists from a
//! worklist, so input nesting depth is bounded by memory, not by the
//! thread's stack.

use crate::diag::{Diagnostic, E_UNBALANCED};
use crate::lexer::{Lexer, TokenKind};
use crate::span::Span;

/// A spanned S-expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sexp<'a> {
    /// Payload.
    pub kind: SexpKind<'a>,
    /// Byte range covering the node including its parentheses.
    pub span: Span,
}

/// The node payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SexpKind<'a> {
    /// A bare atom, borrowed from the source.
    Atom(&'a str),
    /// A string literal (escapes decoded).
    Str(String),
    /// `( ... )`
    List(Vec<Sexp<'a>>),
}

impl<'a> Sexp<'a> {
    /// The atom text, if this is an atom.
    pub fn as_atom(&self) -> Option<&'a str> {
        match self.kind {
            SexpKind::Atom(s) => Some(s),
            _ => None,
        }
    }

    /// The list items, if this is a list.
    pub fn as_list(&self) -> Option<&[Sexp<'a>]> {
        match &self.kind {
            SexpKind::List(items) => Some(items),
            _ => None,
        }
    }

    /// Short description for diagnostics ("atom `foo`", "string", "list").
    pub fn describe(&self) -> String {
        match &self.kind {
            SexpKind::Atom(s) => format!("atom `{s}`"),
            SexpKind::Str(_) => "string literal".to_string(),
            SexpKind::List(_) => "list".to_string(),
        }
    }
}

impl Drop for Sexp<'_> {
    /// Frees nested lists from a worklist; the derived drop would recurse
    /// once per level of nesting.
    fn drop(&mut self) {
        let SexpKind::List(items) = &mut self.kind else {
            return;
        };
        if items.is_empty() {
            return;
        }
        let mut pending = vec![std::mem::take(items)];
        while let Some(mut list) = pending.pop() {
            for node in &mut list {
                if let SexpKind::List(inner) = &mut node.kind {
                    if !inner.is_empty() {
                        pending.push(std::mem::take(inner));
                    }
                }
            }
            // `list` is freed here; every list in it is empty by now.
        }
    }
}

/// Reads all top-level S-expressions in `src`.
///
/// Always returns the forest that could be recovered; lexical and structural
/// errors are reported in the diagnostic list (empty = clean parse). Lexical
/// diagnostics come first, then structural ones in source order, with the
/// `(`s still open at end of input reported innermost first.
pub fn read(src: &str) -> (Vec<Sexp<'_>>, Vec<Diagnostic>) {
    let mut lexer = Lexer::new(src);
    let mut diags = Vec::new();
    // The top-level forest, followed by the items of every list not yet
    // closed, back to back; `open` holds each such list's `(` span and
    // where its items start, innermost last. Closing a list moves its items
    // out in one exactly-sized allocation.
    let mut items: Vec<Sexp> = Vec::new();
    let mut open: Vec<(Span, usize)> = Vec::new();
    for token in &mut lexer {
        let node = match token.kind {
            TokenKind::Atom(s) => Sexp {
                kind: SexpKind::Atom(s),
                span: token.span,
            },
            TokenKind::Str(s) => Sexp {
                kind: SexpKind::Str(s),
                span: token.span,
            },
            TokenKind::LParen => {
                open.push((token.span, items.len()));
                continue;
            }
            TokenKind::RParen => match open.pop() {
                Some((start, first)) => Sexp {
                    kind: SexpKind::List(items.split_off(first)),
                    span: start.to(token.span),
                },
                None => {
                    // Skip it and keep reading so later errors still surface.
                    diags.push(Diagnostic::new(
                        E_UNBALANCED,
                        "unmatched `)`".to_string(),
                        token.span,
                    ));
                    continue;
                }
            },
        };
        items.push(node);
    }
    // End of input: close what is still open, innermost first, each partial
    // list becoming the last item of its parent.
    while let Some((start, first)) = open.pop() {
        diags.push(
            Diagnostic::new(E_UNBALANCED, "unclosed `(`".to_string(), start)
                .with_note("expected a matching `)` before end of input"),
        );
        let list = items.split_off(first);
        let span = list.last().map_or(start, |s| start.to(s.span));
        items.push(Sexp {
            kind: SexpKind::List(list),
            span,
        });
    }
    let mut all = lexer.diagnostics;
    all.append(&mut diags);
    (items, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(src: &str) -> Vec<Sexp<'_>> {
        let (forest, diags) = read(src);
        assert!(diags.is_empty(), "{diags:?}");
        forest
    }

    #[test]
    fn reads_nested_lists_with_spans() {
        let forest = clean("(a (b c) \"s\")");
        assert_eq!(forest.len(), 1);
        let items = forest[0].as_list().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_atom(), Some("a"));
        assert_eq!(items[1].span, Span::new(3, 8));
        assert_eq!(forest[0].span, Span::new(0, 13));
    }

    #[test]
    fn unclosed_paren_reported_with_span_of_opener() {
        let (forest, diags) = read("(a (b");
        assert_eq!(diags.len(), 2, "both unclosed lists report");
        assert!(diags.iter().all(|d| d.code == E_UNBALANCED));
        assert_eq!(forest.len(), 1, "partial tree still recovered");
    }

    #[test]
    fn unmatched_close_paren_reported() {
        let (forest, diags) = read(") (a)");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_UNBALANCED);
        assert_eq!(diags[0].span, Some(Span::new(0, 1)));
        assert_eq!(forest.len(), 1, "reading continues past the stray paren");
    }

    #[test]
    fn unclosed_parens_report_innermost_first() {
        let (_, diags) = read("(a (b (c");
        let starts: Vec<_> = diags.iter().map(|d| d.span.unwrap().start).collect();
        assert_eq!(starts, vec![6, 3, 0]);
    }

    #[test]
    fn deep_nesting_reads_and_drops_without_recursion() {
        // Runs on the default test-thread stack: neither reading nor dropping
        // may take a stack frame per level.
        const DEPTH: usize = 200_000;
        let src = format!("{}x{}", "(".repeat(DEPTH), ")".repeat(DEPTH));
        let (forest, diags) = read(&src);
        assert!(diags.is_empty());
        assert_eq!(forest.len(), 1);
        let mut node = &forest[0];
        let mut depth = 0;
        while let Some([inner]) = node.as_list() {
            node = inner;
            depth += 1;
        }
        assert_eq!(depth, DEPTH);
        assert_eq!(node.as_atom(), Some("x"));
        let (forest, diags) = read(&src[..DEPTH + 1]);
        assert_eq!(diags.len(), DEPTH, "every `(` is unclosed");
        drop(forest);
    }

    #[test]
    fn describe_names_node_kinds() {
        let forest = clean("x (y) \"z\"");
        assert_eq!(forest[0].describe(), "atom `x`");
        assert_eq!(forest[1].describe(), "list");
        assert_eq!(forest[2].describe(), "string literal");
    }
}
