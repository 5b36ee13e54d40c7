//! Tokenizer for the mini-Nsp language.
//!
//! The one genuinely tricky piece of Matlab-family lexing is the quote
//! character: `'` opens a string *except* immediately after an
//! identifier, number, `)`, `]` or `'`, where it is the postfix transpose
//! operator (`Lpb'`). We use the classic "previous significant token"
//! disambiguation.
//!
//! Every token carries a [`Pos`] (1-based line and column of its first
//! character) so parse and runtime errors can point at the offending
//! source location.

use std::fmt;

/// A 1-based source position (line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pos {
    /// 1-based source line.
    line: u32,
    /// 1-based column (in characters) within the line.
    col: u32,
}

impl Pos {
    /// Sentinel "no position" value (line 0).
    pub(crate) const NONE: Pos = Pos { line: 0, col: 0 };

    /// Whether this is a real position (line numbers are 1-based).
    pub(crate) fn is_some(&self) -> bool {
        self.line != 0
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexical token of the mini-Nsp language.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Numeric literal.
    Num(f64),
    /// String literal (single- or double-quoted).
    Str(String),
    /// Identifier.
    Ident(String),
    /// `%t`.
    True,
    /// `%f`.
    False,
    /// `if` keyword.
    If,
    /// `then` keyword.
    Then,
    /// `else` keyword.
    Else,
    /// `elseif` keyword.
    Elseif,
    /// `end` keyword.
    End,
    /// `while` keyword.
    While,
    /// `for` keyword.
    For,
    /// `do` keyword.
    Do,
    /// `break` keyword.
    Break,
    /// `continue` keyword.
    Continue,
    /// `return` keyword.
    Return,
    /// `function` keyword.
    Function,
    /// `endfunction` keyword.
    EndFunction,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `,`.
    Comma,
    /// `;` (statement separator).
    Semi,
    /// End of line (statement separator).
    Newline,
    /// `.` (field access / method call).
    Dot,
    /// `=` (assignment).
    Assign,
    /// `==`.
    Eq,
    /// `<>` or `~=`.
    Ne,
    /// `<`.
    Lt,
    /// `>`.
    Gt,
    /// `<=`.
    Le,
    /// `>=`.
    Ge,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `:` (range).
    Colon,
    /// Postfix transpose `'`.
    Quote,
    /// `&&` or `&`.
    And,
    /// `||` or `|`.
    Or,
    /// `~` (logical not).
    Not,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Lexing error with a 1-based source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LexError {
    /// Position of the offending character.
    pub(crate) pos: Pos,
    /// Human-readable description.
    pub(crate) message: String,
}

fn keyword(word: &str) -> Option<Tok> {
    Some(match word {
        "if" => Tok::If,
        "then" => Tok::Then,
        "else" => Tok::Else,
        "elseif" => Tok::Elseif,
        "end" => Tok::End,
        "while" => Tok::While,
        "for" => Tok::For,
        "do" => Tok::Do,
        "break" => Tok::Break,
        "continue" => Tok::Continue,
        "return" => Tok::Return,
        "function" => Tok::Function,
        "endfunction" => Tok::EndFunction,
        _ => return None,
    })
}

/// Can the previous token end an expression (so `'` means transpose)?
fn ends_expression(tok: Option<&Tok>) -> bool {
    matches!(
        tok,
        Some(Tok::Ident(_))
            | Some(Tok::Num(_))
            | Some(Tok::RParen)
            | Some(Tok::RBracket)
            | Some(Tok::Quote)
            | Some(Tok::True)
            | Some(Tok::False)
    )
}

/// Tokenize a source string. Comments run from `//` to end of line.
pub(crate) fn lex(src: &str) -> Result<Vec<(Tok, Pos)>, LexError> {
    let mut out: Vec<(Tok, Pos)> = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1u32;
    // Char index of the first character of the current line; columns are
    // 1-based offsets from it.
    let mut line_start = 0usize;
    let n = bytes.len();

    let err = |pos: Pos, msg: &str| LexError {
        pos,
        message: msg.to_string(),
    };

    while i < n {
        let c = bytes[i];
        let tp = Pos {
            line,
            col: (i - line_start + 1) as u32,
        };
        match c {
            ' ' | '\t' | '\r' => {
                i += 1;
            }
            '\n' => {
                out.push((Tok::Newline, tp));
                line += 1;
                i += 1;
                line_start = i;
            }
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '%' => {
                // %t / %f boolean literals.
                if i + 1 < n && (bytes[i + 1] == 't' || bytes[i + 1] == 'f') {
                    out.push((
                        if bytes[i + 1] == 't' {
                            Tok::True
                        } else {
                            Tok::False
                        },
                        tp,
                    ));
                    i += 2;
                } else {
                    return Err(err(tp, "unknown % literal"));
                }
            }
            '\'' | '"' => {
                let is_transpose = c == '\'' && ends_expression(out.last().map(|(t, _)| t));
                if is_transpose {
                    out.push((Tok::Quote, tp));
                    i += 1;
                } else {
                    // String literal; '' (resp. "") escapes the delimiter.
                    let delim = c;
                    let mut s = String::new();
                    i += 1;
                    loop {
                        if i >= n {
                            return Err(err(tp, "unterminated string"));
                        }
                        if bytes[i] == delim {
                            if i + 1 < n && bytes[i + 1] == delim {
                                s.push(delim);
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        } else {
                            if bytes[i] == '\n' {
                                line += 1;
                                line_start = i + 1;
                            }
                            s.push(bytes[i]);
                            i += 1;
                        }
                    }
                    out.push((Tok::Str(s), tp));
                }
            }
            '0'..='9' => {
                let start = i;
                while i < n && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                    // Don't swallow the dot of `1.foo` field access or `1.e5`.
                    if bytes[i] == '.'
                        && i + 1 < n
                        && !bytes[i + 1].is_ascii_digit()
                        && bytes[i + 1] != 'e'
                        && bytes[i + 1] != 'E'
                    {
                        break;
                    }
                    i += 1;
                }
                // Exponent.
                if i < n && (bytes[i] == 'e' || bytes[i] == 'E') {
                    let mut j = i + 1;
                    if j < n && (bytes[j] == '+' || bytes[j] == '-') {
                        j += 1;
                    }
                    if j < n && bytes[j].is_ascii_digit() {
                        i = j;
                        while i < n && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text: String = bytes[start..i].iter().collect();
                let v = text
                    .parse::<f64>()
                    .map_err(|_| err(tp, &format!("bad number {text}")))?;
                out.push((Tok::Num(v), tp));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                out.push((keyword(&word).unwrap_or(Tok::Ident(word)), tp));
            }
            '(' => {
                out.push((Tok::LParen, tp));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, tp));
                i += 1;
            }
            '[' => {
                out.push((Tok::LBracket, tp));
                i += 1;
            }
            ']' => {
                out.push((Tok::RBracket, tp));
                i += 1;
            }
            ',' => {
                out.push((Tok::Comma, tp));
                i += 1;
            }
            ';' => {
                out.push((Tok::Semi, tp));
                i += 1;
            }
            '.' => {
                out.push((Tok::Dot, tp));
                i += 1;
            }
            '+' => {
                out.push((Tok::Plus, tp));
                i += 1;
            }
            '-' => {
                out.push((Tok::Minus, tp));
                i += 1;
            }
            '*' => {
                out.push((Tok::Star, tp));
                i += 1;
            }
            '/' => {
                out.push((Tok::Slash, tp));
                i += 1;
            }
            ':' => {
                out.push((Tok::Colon, tp));
                i += 1;
            }
            '=' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    out.push((Tok::Eq, tp));
                    i += 2;
                } else {
                    out.push((Tok::Assign, tp));
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < n && bytes[i + 1] == '>' {
                    out.push((Tok::Ne, tp));
                    i += 2;
                } else if i + 1 < n && bytes[i + 1] == '=' {
                    out.push((Tok::Le, tp));
                    i += 2;
                } else {
                    out.push((Tok::Lt, tp));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    out.push((Tok::Ge, tp));
                    i += 2;
                } else {
                    out.push((Tok::Gt, tp));
                    i += 1;
                }
            }
            '~' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    out.push((Tok::Ne, tp));
                    i += 2;
                } else {
                    out.push((Tok::Not, tp));
                    i += 1;
                }
            }
            '&' => {
                i += if i + 1 < n && bytes[i + 1] == '&' {
                    2
                } else {
                    1
                };
                out.push((Tok::And, tp));
            }
            '|' => {
                i += if i + 1 < n && bytes[i + 1] == '|' {
                    2
                } else {
                    1
                };
                out.push((Tok::Or, tp));
            }
            other => {
                return Err(err(tp, &format!("unexpected character {other:?}")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn numbers_and_ops() {
        assert_eq!(
            toks("x = 1.5 + 2e3"),
            vec![
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Num(1.5),
                Tok::Plus,
                Tok::Num(2000.0)
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it's".into())]);
        assert_eq!(toks("\"equity\""), vec![Tok::Str("equity".into())]);
    }

    #[test]
    fn transpose_vs_string() {
        // After an identifier, ' is transpose; at expression start it is
        // a string opener.
        assert_eq!(toks("Lpb'"), vec![Tok::Ident("Lpb".into()), Tok::Quote]);
        assert_eq!(
            toks("x = 'str'"),
            vec![Tok::Ident("x".into()), Tok::Assign, Tok::Str("str".into())]
        );
        // After ) too.
        assert_eq!(
            toks("f(x)'"),
            vec![
                Tok::Ident("f".into()),
                Tok::LParen,
                Tok::Ident("x".into()),
                Tok::RParen,
                Tok::Quote
            ]
        );
    }

    #[test]
    fn booleans_and_keywords() {
        assert_eq!(
            toks("while %t then break end"),
            vec![Tok::While, Tok::True, Tok::Then, Tok::Break, Tok::End]
        );
    }

    #[test]
    fn comments_and_newlines() {
        assert_eq!(
            toks("a = 1 // comment\nb = 2"),
            vec![
                Tok::Ident("a".into()),
                Tok::Assign,
                Tok::Num(1.0),
                Tok::Newline,
                Tok::Ident("b".into()),
                Tok::Assign,
                Tok::Num(2.0)
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("a <> b == c <= d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ne,
                Tok::Ident("b".into()),
                Tok::Eq,
                Tok::Ident("c".into()),
                Tok::Le,
                Tok::Ident("d".into())
            ]
        );
    }

    #[test]
    fn paper_snippet_lexes() {
        let src =
            "if mpi_rank <> 0 // Slave part\n  name = MPI_Recv_Obj(0,TAG,MPI_COMM_WORLD);\nend";
        assert!(lex(src).is_ok());
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("x = 'oops").is_err());
    }

    #[test]
    fn line_numbers_tracked() {
        let lexed = lex("a=1\nb=2\nc=3").unwrap();
        let last = lexed.last().unwrap();
        assert_eq!(last.1, Pos { line: 3, col: 3 });
    }

    #[test]
    fn columns_tracked() {
        let lexed = lex("ab = 12\n  cd = 3").unwrap();
        // `ab` at 1:1, `=` at 1:4, `12` at 1:6; `cd` at 2:3.
        assert_eq!(lexed[0].1, Pos { line: 1, col: 1 });
        assert_eq!(lexed[1].1, Pos { line: 1, col: 4 });
        assert_eq!(lexed[2].1, Pos { line: 1, col: 6 });
        assert_eq!(lexed[4].1, Pos { line: 2, col: 3 });
    }

    #[test]
    fn lex_error_carries_position() {
        let e = lex("x = 1\ny = @").unwrap_err();
        assert_eq!(e.pos, Pos { line: 2, col: 5 });
    }
}
