//! AST → bytecode compiler.
//!
//! Scoping is function-level (like `var`): every `let` inside a function
//! body claims a local slot; top-level `let`s become globals. Name
//! resolution is local-first, then global; unknown globals resolve to
//! builtins at run time.

use core::fmt;

use crate::ast::{BinOp, Expr, FunctionDecl, Stmt, UnOp};
use crate::bytecode::{Chunk, Op, Program};
use crate::parser::{parse, ParseError};

/// A compilation error.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileError {
    /// Description.
    pub(crate) msg: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.msg)
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError { msg: e.to_string() }
    }
}

/// Compiles source text into a bytecode `Program`.
pub fn compile(src: &str) -> Result<Program, CompileError> {
    let script = parse(src)?;
    let mut c = Compiler {
        program: Program {
            source_len: src.len(),
            ..Program::default()
        },
    };
    // Chunk 0 is the top level.
    let main = c.compile_chunk("<main>", &[], &script.stmts, true)?;
    debug_assert_eq!(main, 0);
    Ok(c.program)
}

struct Compiler {
    program: Program,
}

struct FnCtx {
    chunk: Chunk,
    locals: Vec<String>,
    is_main: bool,
    loop_stack: Vec<LoopCtx>,
}

#[derive(Default)]
struct LoopCtx {
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

impl Compiler {
    fn string_idx(&mut self, s: &str) -> u32 {
        if let Some(i) = self.program.strings.iter().position(|x| x == s) {
            return i as u32;
        }
        self.program.strings.push(s.to_string());
        self.program.strings.len() as u32 - 1
    }

    fn name_idx(&mut self, s: &str) -> u32 {
        if let Some(i) = self.program.names.iter().position(|x| x == s) {
            return i as u32;
        }
        self.program.names.push(s.to_string());
        self.program.names.len() as u32 - 1
    }

    fn compile_chunk(
        &mut self,
        name: &str,
        params: &[String],
        body: &[Stmt],
        is_main: bool,
    ) -> Result<u32, CompileError> {
        // Reserve our slot first so nested functions get later indices and
        // the top level stays chunk 0.
        let idx = self.program.chunks.len() as u32;
        self.program.chunks.push(Chunk::default());

        let mut ctx = FnCtx {
            chunk: Chunk {
                name: name.to_string(),
                num_params: params.len() as u16,
                num_locals: 0,
                code: Vec::new(),
            },
            locals: params.to_vec(),
            is_main,
            loop_stack: Vec::new(),
        };
        for stmt in body {
            self.stmt(&mut ctx, stmt)?;
        }
        // Implicit return null (main's value comes from the result register).
        ctx.chunk.code.push(Op::Null);
        ctx.chunk.code.push(Op::Return);
        ctx.chunk.num_locals = ctx.locals.len() as u16;
        self.program.chunks[idx as usize] = ctx.chunk;
        Ok(idx)
    }

    fn local_slot(ctx: &FnCtx, name: &str) -> Option<u16> {
        ctx.locals.iter().rposition(|l| l == name).map(|i| i as u16)
    }

    fn stmt(&mut self, ctx: &mut FnCtx, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Let(name, value) => {
                self.expr(ctx, value)?;
                if ctx.is_main {
                    let n = self.name_idx(name);
                    ctx.chunk.code.push(Op::StoreGlobal(n));
                } else {
                    let slot = match Self::local_slot(ctx, name) {
                        Some(s) => s,
                        None => {
                            ctx.locals.push(name.clone());
                            if ctx.locals.len() > u16::MAX as usize {
                                return Err(CompileError {
                                    msg: format!("too many locals in {}", ctx.chunk.name),
                                });
                            }
                            ctx.locals.len() as u16 - 1
                        }
                    };
                    ctx.chunk.code.push(Op::StoreLocal(slot));
                }
            }
            Stmt::Expr(e) => {
                self.expr(ctx, e)?;
                ctx.chunk
                    .code
                    .push(if ctx.is_main { Op::SetResult } else { Op::Pop });
            }
            Stmt::Return(value) => {
                match value {
                    Some(e) => self.expr(ctx, e)?,
                    None => ctx.chunk.code.push(Op::Null),
                }
                ctx.chunk.code.push(Op::Return);
            }
            Stmt::If(cond, then, els) => {
                self.expr(ctx, cond)?;
                let jf = ctx.chunk.code.len();
                ctx.chunk.code.push(Op::JumpIfFalse(0));
                for s in then {
                    self.stmt(ctx, s)?;
                }
                if els.is_empty() {
                    let end = ctx.chunk.code.len() as u32;
                    ctx.chunk.code[jf] = Op::JumpIfFalse(end);
                } else {
                    let jend = ctx.chunk.code.len();
                    ctx.chunk.code.push(Op::Jump(0));
                    let else_start = ctx.chunk.code.len() as u32;
                    ctx.chunk.code[jf] = Op::JumpIfFalse(else_start);
                    for s in els {
                        self.stmt(ctx, s)?;
                    }
                    let end = ctx.chunk.code.len() as u32;
                    ctx.chunk.code[jend] = Op::Jump(end);
                }
            }
            Stmt::While(cond, body) => {
                let top = ctx.chunk.code.len() as u32;
                self.expr(ctx, cond)?;
                let jf = ctx.chunk.code.len();
                ctx.chunk.code.push(Op::JumpIfFalse(0));
                ctx.loop_stack.push(LoopCtx::default());
                for s in body {
                    self.stmt(ctx, s)?;
                }
                let loop_ctx = ctx.loop_stack.pop().expect("pushed above");
                ctx.chunk.code.push(Op::Jump(top));
                let end = ctx.chunk.code.len() as u32;
                ctx.chunk.code[jf] = Op::JumpIfFalse(end);
                for b in loop_ctx.breaks {
                    ctx.chunk.code[b] = Op::Jump(end);
                }
                for c in loop_ctx.continues {
                    ctx.chunk.code[c] = Op::Jump(top);
                }
            }
            Stmt::Break => {
                let at = ctx.chunk.code.len();
                ctx.chunk.code.push(Op::Jump(0));
                match ctx.loop_stack.last_mut() {
                    Some(l) => l.breaks.push(at),
                    None => {
                        return Err(CompileError {
                            msg: "break outside loop".into(),
                        })
                    }
                }
            }
            Stmt::Continue => {
                let at = ctx.chunk.code.len();
                ctx.chunk.code.push(Op::Jump(0));
                match ctx.loop_stack.last_mut() {
                    Some(l) => l.continues.push(at),
                    None => {
                        return Err(CompileError {
                            msg: "continue outside loop".into(),
                        })
                    }
                }
            }
            Stmt::Function(decl) => {
                let chunk = self.function(ctx, decl)?;
                ctx.chunk.code.push(Op::Closure(chunk));
                if ctx.is_main {
                    let n = self.name_idx(&decl.name);
                    ctx.chunk.code.push(Op::StoreGlobal(n));
                } else {
                    ctx.locals.push(decl.name.clone());
                    ctx.chunk
                        .code
                        .push(Op::StoreLocal(ctx.locals.len() as u16 - 1));
                }
            }
        }
        Ok(())
    }

    fn function(&mut self, _outer: &FnCtx, decl: &FunctionDecl) -> Result<u32, CompileError> {
        self.compile_chunk(&decl.name, &decl.params, &decl.body, false)
    }

    fn expr(&mut self, ctx: &mut FnCtx, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Num(n) => ctx.chunk.code.push(Op::Num(*n)),
            Expr::Str(s) => {
                let i = self.string_idx(s);
                ctx.chunk.code.push(Op::Str(i));
            }
            Expr::Bool(b) => ctx.chunk.code.push(Op::Bool(*b)),
            Expr::Null => ctx.chunk.code.push(Op::Null),
            Expr::Var(name) => match Self::local_slot(ctx, name) {
                Some(slot) if !ctx.is_main => ctx.chunk.code.push(Op::LoadLocal(slot)),
                _ => {
                    let n = self.name_idx(name);
                    ctx.chunk.code.push(Op::LoadGlobal(n));
                }
            },
            Expr::Bin(BinOp::And, l, r) => {
                self.expr(ctx, l)?;
                let j = ctx.chunk.code.len();
                ctx.chunk.code.push(Op::JumpIfFalsePeek(0));
                self.expr(ctx, r)?;
                let end = ctx.chunk.code.len() as u32;
                ctx.chunk.code[j] = Op::JumpIfFalsePeek(end);
            }
            Expr::Bin(BinOp::Or, l, r) => {
                self.expr(ctx, l)?;
                let j = ctx.chunk.code.len();
                ctx.chunk.code.push(Op::JumpIfTruePeek(0));
                self.expr(ctx, r)?;
                let end = ctx.chunk.code.len() as u32;
                ctx.chunk.code[j] = Op::JumpIfTruePeek(end);
            }
            Expr::Bin(op, l, r) => {
                self.expr(ctx, l)?;
                self.expr(ctx, r)?;
                ctx.chunk.code.push(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Mod => Op::Mod,
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                });
            }
            Expr::Un(op, inner) => {
                self.expr(ctx, inner)?;
                ctx.chunk.code.push(match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                });
            }
            Expr::Call(callee, args) => {
                self.expr(ctx, callee)?;
                for a in args {
                    self.expr(ctx, a)?;
                }
                if args.len() > u16::MAX as usize {
                    return Err(CompileError {
                        msg: "too many call arguments".into(),
                    });
                }
                ctx.chunk.code.push(Op::Call(args.len() as u16));
            }
            Expr::Array(items) => {
                for item in items {
                    self.expr(ctx, item)?;
                }
                ctx.chunk.code.push(Op::MakeArray(items.len() as u16));
            }
            Expr::Object(pairs) => {
                ctx.chunk.code.push(Op::MakeObject);
                for (key, value) in pairs {
                    self.expr(ctx, value)?;
                    let n = self.name_idx(key);
                    ctx.chunk.code.push(Op::InitProp(n));
                }
            }
            Expr::Index(container, index) => {
                self.expr(ctx, container)?;
                self.expr(ctx, index)?;
                ctx.chunk.code.push(Op::GetIndex);
            }
            Expr::Prop(container, name) => {
                self.expr(ctx, container)?;
                let n = self.name_idx(name);
                ctx.chunk.code.push(Op::GetProp(n));
            }
            Expr::Assign(target, value) => match &**target {
                Expr::Var(name) => {
                    self.expr(ctx, value)?;
                    ctx.chunk.code.push(Op::Dup);
                    match Self::local_slot(ctx, name) {
                        Some(slot) if !ctx.is_main => ctx.chunk.code.push(Op::StoreLocal(slot)),
                        _ => {
                            let n = self.name_idx(name);
                            ctx.chunk.code.push(Op::StoreGlobal(n));
                        }
                    }
                }
                Expr::Index(container, index) => {
                    self.expr(ctx, container)?;
                    self.expr(ctx, index)?;
                    self.expr(ctx, value)?;
                    ctx.chunk.code.push(Op::SetIndex);
                }
                Expr::Prop(container, name) => {
                    self.expr(ctx, container)?;
                    self.expr(ctx, value)?;
                    let n = self.name_idx(name);
                    ctx.chunk.code.push(Op::SetProp(n));
                }
                _ => {
                    return Err(CompileError {
                        msg: "invalid assignment target".into(),
                    })
                }
            },
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_is_chunk_zero() {
        let p = compile("let x = 1; function f() { return 2; }").unwrap();
        assert_eq!(p.chunks[0].name, "<main>");
        assert_eq!(p.chunks[1].name, "f");
    }

    #[test]
    fn params_become_locals() {
        let p = compile("function f(a, b, c) { let d = 1; return d; }").unwrap();
        let f = &p.chunks[1];
        assert_eq!(f.num_params, 3);
        assert_eq!(f.num_locals, 4);
    }

    #[test]
    fn top_level_let_is_global() {
        let p = compile("let x = 1; x;").unwrap();
        assert!(p.chunks[0].code.contains(&Op::StoreGlobal(0)));
        assert!(p.names.contains(&"x".to_string()));
    }

    #[test]
    fn while_loop_jumps_are_patched() {
        let p = compile("let i = 0; while (i < 3) { i = i + 1; }").unwrap();
        for op in &p.chunks[0].code {
            match op {
                Op::Jump(t) | Op::JumpIfFalse(t) => {
                    assert!((*t as usize) <= p.chunks[0].code.len());
                    assert_ne!(*t, 0, "unpatched jump");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn break_outside_loop_rejected() {
        assert!(compile("break;").is_err());
        assert!(compile("while (true) { break; }").is_ok());
    }

    #[test]
    fn strings_are_pooled() {
        let p = compile("'a'; 'b'; 'a';").unwrap();
        assert_eq!(p.strings, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn short_circuit_compiles_to_peek_jumps() {
        let p = compile("true && false;").unwrap();
        assert!(p.chunks[0]
            .code
            .iter()
            .any(|op| matches!(op, Op::JumpIfFalsePeek(_))));
        let p = compile("true || false;").unwrap();
        assert!(p.chunks[0]
            .code
            .iter()
            .any(|op| matches!(op, Op::JumpIfTruePeek(_))));
    }

    #[test]
    fn source_len_recorded() {
        let src = "let x = 1;";
        assert_eq!(compile(src).unwrap().source_len, src.len());
    }
}
