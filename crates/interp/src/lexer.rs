//! Tokenizer for the miniscript language.

use core::fmt;

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Token {
    /// Numeric literal.
    Num(f64),
    /// String literal (contents, unescaped).
    Str(String),
    /// Identifier.
    Ident(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// Keywords.
    Let,
    /// `function`.
    Function,
    /// `return`.
    Return,
    /// `if`.
    If,
    /// `else`.
    Else,
    /// `while`.
    While,
    /// `for`.
    For,
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `,`.
    Comma,
    /// `;`.
    Semi,
    /// `.`.
    Dot,
    /// `:`.
    Colon,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `=`.
    Assign,
    /// `+=`.
    PlusAssign,
    /// `-=`.
    MinusAssign,
    /// `*=`.
    StarAssign,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&`.
    And,
    /// `||`.
    Or,
    /// `!`.
    Not,
    /// End of input.
    Eof,
}

/// A lexing error with byte position.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LexError {
    /// Byte offset of the offending character.
    pub(crate) at: usize,
    /// Description.
    pub(crate) msg: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes a whole source string.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let text = &src[start..i];
                let n = text.parse::<f64>().map_err(|_| LexError {
                    at: start,
                    msg: format!("bad number literal {text:?}"),
                })?;
                out.push(Token::Num(n));
            }
            '"' | '\'' => {
                let quote = bytes[i];
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            at: i,
                            msg: "unterminated string".into(),
                        });
                    }
                    let b = bytes[i];
                    if b == quote {
                        i += 1;
                        break;
                    }
                    if b == b'\\' {
                        i += 1;
                        let esc = bytes.get(i).copied().ok_or(LexError {
                            at: i,
                            msg: "dangling escape".into(),
                        })?;
                        s.push(match esc {
                            b'n' => '\n',
                            b't' => '\t',
                            b'\\' => '\\',
                            b'"' => '"',
                            b'\'' => '\'',
                            other => {
                                return Err(LexError {
                                    at: i,
                                    msg: format!("unknown escape \\{}", other as char),
                                })
                            }
                        });
                        i += 1;
                    } else {
                        s.push(b as char);
                        i += 1;
                    }
                }
                out.push(Token::Str(s));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                out.push(match word {
                    "let" | "var" | "const" => Token::Let,
                    "function" => Token::Function,
                    "return" => Token::Return,
                    "if" => Token::If,
                    "else" => Token::Else,
                    "while" => Token::While,
                    "for" => Token::For,
                    "break" => Token::Break,
                    "continue" => Token::Continue,
                    "true" => Token::Bool(true),
                    "false" => Token::Bool(false),
                    "null" => Token::Null,
                    _ => Token::Ident(word.to_string()),
                });
            }
            _ => {
                let two = |a: u8, b: u8| i + 1 < bytes.len() && bytes[i] == a && bytes[i + 1] == b;
                let (tok, len) = if two(b'=', b'=') {
                    (Token::Eq, 2)
                } else if two(b'+', b'=') {
                    (Token::PlusAssign, 2)
                } else if two(b'-', b'=') {
                    (Token::MinusAssign, 2)
                } else if two(b'*', b'=') {
                    (Token::StarAssign, 2)
                } else if two(b'!', b'=') {
                    (Token::Ne, 2)
                } else if two(b'<', b'=') {
                    (Token::Le, 2)
                } else if two(b'>', b'=') {
                    (Token::Ge, 2)
                } else if two(b'&', b'&') {
                    (Token::And, 2)
                } else if two(b'|', b'|') {
                    (Token::Or, 2)
                } else {
                    let t = match c {
                        '(' => Token::LParen,
                        ')' => Token::RParen,
                        '{' => Token::LBrace,
                        '}' => Token::RBrace,
                        '[' => Token::LBracket,
                        ']' => Token::RBracket,
                        ',' => Token::Comma,
                        ';' => Token::Semi,
                        '.' => Token::Dot,
                        ':' => Token::Colon,
                        '+' => Token::Plus,
                        '-' => Token::Minus,
                        '*' => Token::Star,
                        '/' => Token::Slash,
                        '%' => Token::Percent,
                        '=' => Token::Assign,
                        '<' => Token::Lt,
                        '>' => Token::Gt,
                        '!' => Token::Not,
                        other => {
                            return Err(LexError {
                                at: i,
                                msg: format!("unexpected character {other:?}"),
                            })
                        }
                    };
                    (t, 1)
                };
                out.push(tok);
                i += len;
            }
        }
    }
    out.push(Token::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_numbers_and_ops() {
        let toks = lex("1 + 2.5 * x").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Num(1.0),
                Token::Plus,
                Token::Num(2.5),
                Token::Star,
                Token::Ident("x".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let toks = lex(r#""a\nb" 'c'"#).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("a\nb".into()),
                Token::Str("c".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_keywords() {
        let toks = lex("let f = function() { return true; }").unwrap();
        assert!(toks.contains(&Token::Let));
        assert!(toks.contains(&Token::Function));
        assert!(toks.contains(&Token::Return));
        assert!(toks.contains(&Token::Bool(true)));
    }

    #[test]
    fn const_and_var_alias_let() {
        assert_eq!(lex("const x").unwrap()[0], Token::Let);
        assert_eq!(lex("var x").unwrap()[0], Token::Let);
    }

    #[test]
    fn compound_assignment_tokens() {
        let toks = lex("a += 1; b -= 2; c *= 3").unwrap();
        assert!(toks.contains(&Token::PlusAssign));
        assert!(toks.contains(&Token::MinusAssign));
        assert!(toks.contains(&Token::StarAssign));
    }

    #[test]
    fn two_char_operators() {
        let toks = lex("a == b != c <= d >= e && f || g").unwrap();
        assert!(toks.contains(&Token::Eq));
        assert!(toks.contains(&Token::Ne));
        assert!(toks.contains(&Token::Le));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::And));
        assert!(toks.contains(&Token::Or));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("1 // ignore me\n+ 2").unwrap();
        assert_eq!(
            toks,
            vec![Token::Num(1.0), Token::Plus, Token::Num(2.0), Token::Eof]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(lex("a @ b").is_err());
    }
}
