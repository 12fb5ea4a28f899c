//! A line-oriented lexical splitter for Rust source.
//!
//! [`split`] separates every physical line into its *code* text and its
//! *comment* text, so rule patterns never match inside comments, string
//! literals, char literals, or raw strings (their contents are blanked from
//! the code channel while the delimiting quotes are kept). Handles nested
//! block comments, multi-line strings, `r#".."#` raw strings, byte strings,
//! and the lifetime-vs-char-literal ambiguity of `'`.

/// One physical source line split into code and comment channels.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// The line's code with literal contents blanked.
    pub code: String,
    /// The line's comment text (line, block, and doc comments merged),
    /// without the comment markers.
    pub comment: String,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

enum St {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
}

/// Split `src` into per-line code/comment channels. The number of returned
/// lines equals the number of physical lines in `src`.
pub fn split(src: &str) -> Vec<Line> {
    let cs: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut st = St::Code;
    let mut prev = '\0'; // last code char emitted on this line
    let mut i = 0usize;
    while i < cs.len() {
        let c = cs[i];
        if c == '\n' {
            if matches!(st, St::LineComment) {
                st = St::Code;
            }
            lines.push(std::mem::take(&mut cur));
            prev = '\0';
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                if c == '/' && cs.get(i + 1) == Some(&'/') {
                    st = St::LineComment;
                    i += 2;
                    // Skip doc-comment markers so `///` text parses cleanly.
                    while cs.get(i) == Some(&'/') || cs.get(i) == Some(&'!') {
                        i += 1;
                    }
                } else if c == '/' && cs.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    prev = '"';
                    st = St::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !is_ident(prev) {
                    // Possible raw / byte string head: r", r#", b", br#", …
                    let mut j = i + 1;
                    if c == 'b' && cs.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0usize;
                    while cs.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = (c == 'r' || cs.get(i + 1) == Some(&'r')) && hashes > 0
                        || (c == 'r' && cs.get(j) == Some(&'"'))
                        || (c == 'b' && cs.get(i + 1) == Some(&'r') && cs.get(j) == Some(&'"'));
                    if is_raw && cs.get(j) == Some(&'"') {
                        cur.code.push('"');
                        prev = '"';
                        st = St::RawStr(hashes);
                        i = j + 1;
                    } else if c == 'b' && cs.get(i + 1) == Some(&'"') {
                        cur.code.push('"');
                        prev = '"';
                        st = St::Str;
                        i += 2;
                    } else {
                        cur.code.push(c);
                        prev = c;
                        i += 1;
                    }
                } else if c == '\'' {
                    // Lifetime (`'a`) or char literal (`'x'`, `'\n'`)?
                    let n1 = cs.get(i + 1).copied().unwrap_or('\0');
                    let n2 = cs.get(i + 2).copied().unwrap_or('\0');
                    if n1 == '\\' || (!is_ident(n1) && n1 != '\0') || (is_ident(n1) && n2 == '\'') {
                        // Char literal: blank the contents, keep the quotes.
                        cur.code.push('\'');
                        i += 1;
                        while i < cs.len() && cs[i] != '\'' && cs[i] != '\n' {
                            if cs[i] == '\\' && cs.get(i + 1) != Some(&'\n') {
                                i += 1; // skip escaped char
                            }
                            i += 1;
                        }
                        if cs.get(i) == Some(&'\'') {
                            cur.code.push('\'');
                            i += 1;
                        }
                        prev = '\'';
                    } else {
                        // Lifetime: emit the tick, let the ident follow.
                        cur.code.push('\'');
                        prev = '\'';
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    prev = c;
                    i += 1;
                }
            }
            St::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '*' && cs.get(i + 1) == Some(&'/') {
                    if depth == 1 {
                        st = St::Code;
                    } else {
                        st = St::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && cs.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' && cs.get(i + 1) == Some(&'\n') {
                    // A `\`-newline continuation: skip only the backslash
                    // so the line break above still ends this line.
                    i += 1;
                } else if c == '\\' {
                    i += 2; // skip the escaped char (may be a quote)
                } else if c == '"' {
                    cur.code.push('"');
                    prev = '"';
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1; // blank string contents
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let closes = (1..=hashes).all(|k| cs.get(i + k) == Some(&'#')) || hashes == 0;
                    if closes {
                        cur.code.push('"');
                        prev = '"';
                        st = St::Code;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1; // blank raw-string contents
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_separated() {
        let src =
            "let x = \"a.unwrap() inside\"; // trailing note\nlet y = 1; /* block */ let z = 2;\n";
        let lines = split(src);
        assert_eq!(lines.len(), 2);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.contains("trailing note"));
        assert!(lines[1].code.contains("let z = 2"));
        assert!(lines[1].comment.contains("block"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let p = r#\"panic!(\"boom\")\"#;\nlet q = r\"x.unwrap()\";\n";
        let lines = split(src);
        assert!(!lines[0].code.contains("panic"));
        assert!(!lines[1].code.contains("unwrap"));
    }

    #[test]
    fn lifetimes_survive_and_char_literals_blank() {
        let src = "fn f<'a>(s: &'a str) -> char { '\\'' }\nlet c = 'x'; let d = '\"';\n";
        let lines = split(src);
        assert!(lines[0].code.contains("fn f<'a>(s: &'a str)"));
        // The doubled quote of '"' must not open a string state.
        assert!(lines[1].code.contains("let d ="));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ let real = 1;\n";
        let lines = split(src);
        assert!(lines[0].code.contains("let real = 1"));
        assert!(lines[0].comment.contains("inner"));
    }

    #[test]
    fn multiline_strings_stay_blanked() {
        let src = "let s = \"line one\nline .unwrap() two\";\nlet t = 3;\n";
        let lines = split(src);
        assert_eq!(lines.len(), 3);
        assert!(!lines[1].code.contains("unwrap"));
        assert!(lines[2].code.contains("let t = 3"));
    }

    #[test]
    fn string_continuations_keep_their_lines() {
        let src = "let s = \"one \\\n    two\";\nlet t = x.unwrap();\n";
        let lines = split(src);
        assert_eq!(lines.len(), src.lines().count());
        assert!(!lines[1].code.contains("two"));
        assert!(lines[2].code.contains("unwrap"));
    }

    #[test]
    fn doc_comment_markers_are_stripped() {
        let src = "/// uses x.unwrap() for brevity\n//! module doc\nlet a = 1;\n";
        let lines = split(src);
        assert!(lines[0].code.is_empty());
        assert!(lines[0].comment.contains("unwrap"));
        assert!(lines[1].comment.contains("module doc"));
        assert!(lines[2].code.contains("let a = 1"));
    }
}
