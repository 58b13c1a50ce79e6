//! Abstract syntax tree for miniscript.

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BinOp {
    /// `+` (numeric addition or string concatenation).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Mod,
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
    /// `&&` (strict boolean).
    And,
    /// `||` (strict boolean).
    Or,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UnOp {
    /// Numeric negation.
    Neg,
    /// Boolean not.
    Not,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Expr {
    /// Numeric literal.
    Num(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// Variable reference.
    Var(String),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Call: callee expression and arguments. Callees are either plain
    /// names (user/builtin functions) or property accesses (methods like
    /// `console.log`, resolved as dotted builtins).
    Call(Box<Expr>, Vec<Expr>),
    /// Array literal.
    Array(Vec<Expr>),
    /// Object literal: `(key, value)` pairs.
    Object(Vec<(String, Expr)>),
    /// Indexing: `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Property access: `a.b`.
    Prop(Box<Expr>, String),
    /// Assignment to a variable, index, or property.
    Assign(Box<Expr>, Box<Expr>),
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Stmt {
    /// `let name = expr;`.
    Let(String, Expr),
    /// Bare expression statement.
    Expr(Expr),
    /// `return expr;` (expr optional → null).
    Return(Option<Expr>),
    /// `if (cond) { .. } else { .. }`.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (cond) { .. }`.
    While(Expr, Vec<Stmt>),
    /// `break;`.
    Break,
    /// `continue;`.
    Continue,
    /// `function name(params) { body }`.
    Function(FunctionDecl),
}

/// A named function declaration.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FunctionDecl {
    /// Function name.
    pub(crate) name: String,
    /// Parameter names.
    pub(crate) params: Vec<String>,
    /// Body statements.
    pub(crate) body: Vec<Stmt>,
}

/// A whole parsed script.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Script {
    /// Top-level statements (including function declarations).
    pub(crate) stmts: Vec<Stmt>,
}
