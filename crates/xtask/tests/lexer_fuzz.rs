//! Property-based fuzz suite for the xtask lexer and tokenizer.
//!
//! Two layers of invariant, each checked over generated corpora:
//!
//! 1. **Channel classification** (`lexer::split`): literal *contents*
//!    never reach the code channel (strings blank to `""`, chars to
//!    `''`), comment text lands in the comment channel, lifetimes are
//!    not mistaken for unterminated char literals, and raw strings honor
//!    their hash count.
//! 2. **Parser round-trip** (`tokens::tokenize`): per line, the
//!    concatenated token texts reproduce that line's code channel with
//!    whitespace removed — the tokenizer never invents, drops, or
//!    reorders characters. This invariant is universal (it holds for
//!    arbitrary byte soup, not just valid Rust), so it is asserted on
//!    both the structured and the adversarial corpora.

use proptest::prelude::*;
use proptest::TestCaseError;
use xtask::lexer::{self, Line};
use xtask::tokens;

/// Marker embedded in every generated literal/comment body: if it ever
/// shows up in a code channel, classification leaked.
const SECRET: &str = "zzsecretzz";

/// The universal tokenizer invariant: tokens reconcatenate to the code
/// channel, minus whitespace, line by line.
fn check_roundtrip(src: &str) -> Result<(), TestCaseError> {
    let lines = lexer::split(src);
    let tf = tokens::tokenize(&lines);
    let mut by_line: Vec<String> = vec![String::new(); lines.len()];
    for t in &tf.toks {
        if t.line >= by_line.len() {
            return Err(TestCaseError::fail(format!(
                "token {:?} cites line {} of {}",
                t.text,
                t.line,
                by_line.len()
            )));
        }
        by_line[t.line].push_str(&t.text);
    }
    for (i, line) in lines.iter().enumerate() {
        let stripped: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        prop_assert_eq!(
            &by_line[i],
            &stripped,
            "line {} of {:?}: tokens diverge from the code channel",
            i,
            src
        );
    }
    Ok(())
}

fn code_channel(lines: &[Line]) -> String {
    lines
        .iter()
        .map(|l| l.code.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

fn comment_channel(lines: &[Line]) -> String {
    lines
        .iter()
        .map(|l| l.comment.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

/// One generated source fragment; `expect_comment` says where its SECRET
/// body must surface.
#[derive(Debug, Clone)]
struct Piece {
    text: String,
    /// `Some(true)`: SECRET must appear in the comment channel;
    /// `Some(false)`: SECRET is literal content and must be blanked from
    /// BOTH channels' code (it appears in neither code nor — for
    /// strings — comment). `None`: no SECRET in this piece.
    carries_secret: Option<bool>,
    /// The piece must terminate its line (line comments).
    ends_line: bool,
}

/// Renders piece `kind` (0..=9) with sub-choice `sub`.
fn render_piece(kind: usize, sub: usize) -> Piece {
    let hashes = "#".repeat(sub % 4);
    match kind {
        // Plain code: idents, numbers, punctuation soup.
        0 => Piece {
            text: format!("ident{sub}"),
            carries_secret: None,
            ends_line: false,
        },
        1 => Piece {
            text: format!("{sub}_u64"),
            carries_secret: None,
            ends_line: false,
        },
        2 => Piece {
            text: "match x { A::B { c } => (d, e[f]), _ => g() }".to_string(),
            carries_secret: None,
            ends_line: false,
        },
        // String literal: plain, with escaped quotes, or continued onto
        // the next line by a `\`-newline escape.
        3 => Piece {
            text: match sub % 3 {
                0 => format!("let s = \"{SECRET}\";"),
                1 => format!("let s = \"a\\\"{SECRET}\\\"b\";"),
                _ => format!("let s = \"a\\\n    {SECRET}\";"),
            },
            carries_secret: Some(false),
            ends_line: false,
        },
        // Raw string with `sub % 4` hashes; with at least one hash the
        // body may contain a bare quote.
        4 => Piece {
            text: if hashes.is_empty() {
                format!("let r = r\"{SECRET}\";")
            } else {
                format!("let r = r{hashes}\"a\"b{SECRET}\"{hashes};")
            },
            carries_secret: Some(false),
            ends_line: false,
        },
        // Char literal vs lifetime: both on one line; the lifetime must
        // not swallow the rest of the line as an unterminated char.
        5 => Piece {
            text: "let c: &'a str = f('x', '\\n', b'y');".to_string(),
            carries_secret: None,
            ends_line: false,
        },
        // Byte string.
        6 => Piece {
            text: format!("let b = b\"{SECRET}\";"),
            carries_secret: Some(false),
            ends_line: false,
        },
        // Line comment: terminates the line.
        7 => Piece {
            text: format!("// {SECRET}"),
            carries_secret: Some(true),
            ends_line: true,
        },
        // Block comment, nested `sub % 3` levels deep, sometimes spanning
        // lines.
        8 => {
            let depth = sub % 3;
            let mut t = String::new();
            for _ in 0..=depth {
                t.push_str("/* ");
            }
            t.push_str(SECRET);
            if sub.is_multiple_of(2) {
                t.push('\n');
            }
            for _ in 0..=depth {
                t.push_str(" */");
            }
            Piece {
                text: t,
                carries_secret: Some(true),
                ends_line: false,
            }
        }
        // Doc comment.
        _ => Piece {
            text: format!("/// {SECRET}"),
            carries_secret: Some(true),
            ends_line: true,
        },
    }
}

proptest! {
    #[test]
    fn structured_sources_classify_and_roundtrip(
        choices in proptest::collection::vec((0usize..10, 0usize..8), 1..24),
    ) {
        let pieces: Vec<Piece> = choices.iter().map(|&(k, s)| render_piece(k, s)).collect();
        let mut src = String::new();
        for p in &pieces {
            src.push_str(&p.text);
            src.push(if p.ends_line { '\n' } else { ' ' });
        }
        src.push('\n');

        let lines = lexer::split(&src);
        let code = code_channel(&lines);
        let comments = comment_channel(&lines);

        // One Line per physical line, so findings cite true line numbers.
        prop_assert_eq!(
            lines.len(),
            src.matches('\n').count(),
            "split lost or invented lines: {:?}",
            src
        );

        // Literal contents and comment bodies never reach the code channel.
        prop_assert!(
            !code.contains(SECRET),
            "literal/comment content leaked into code: {:?}\ncode: {:?}",
            src,
            code
        );
        // Comment bodies surface in the comment channel; literal contents
        // are blanked everywhere.
        for p in &pieces {
            if p.carries_secret == Some(true) {
                prop_assert!(
                    comments.contains(SECRET),
                    "comment body lost: {:?}\ncomments: {:?}",
                    src,
                    comments
                );
            }
        }
        // The lifetime piece keeps the rest of its line in code.
        if pieces.iter().any(|p| p.text.contains("&'a str")) {
            prop_assert!(code.contains("str"), "lifetime ate the line: {:?}", code);
        }

        check_roundtrip(&src)?;
    }

    #[test]
    fn adversarial_soup_never_panics_and_roundtrips(
        // Printable ASCII plus the lexer's trigger characters and newlines,
        // in arbitrary order — unterminated literals, stray hashes, nested
        // comment openers included.
        soup in "[ -~\n\"'\\\\#/*r b]{0,300}",
    ) {
        let lines = lexer::split(&soup);
        // Line structure: at most one Line per input line (`str::lines`
        // semantics; a last line holding only an empty comment yields no
        // Line).
        prop_assert!(
            lines.len() <= soup.lines().count(),
            "split invented lines: {} > {}",
            lines.len(),
            soup.lines().count()
        );
        check_roundtrip(&soup)?;
    }

    #[test]
    fn raw_string_hash_counts_are_honored(
        hashes in 0usize..5,
        body in "[a-z\" ]{0,20}",
    ) {
        // r<hashes>"<body>"<hashes> — body may contain quotes whenever
        // hashes > 0; terminator is quote + exactly `hashes` hashes.
        let h = "#".repeat(hashes);
        let body = if hashes == 0 { body.replace('"', "q") } else { body };
        let src = format!("let r = r{h}\"{SECRET}{body}\"{h}; after();\n");
        let lines = lexer::split(&src);
        let code = code_channel(&lines);
        prop_assert!(!code.contains(SECRET), "raw string leaked: {:?}", code);
        prop_assert!(
            code.contains("after"),
            "raw string terminator missed, rest of line swallowed: {:?}",
            code
        );
        check_roundtrip(&src)?;
    }
}
