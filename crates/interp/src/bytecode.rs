//! Bytecode: opcodes, chunks, and compiled programs.

/// One virtual-machine instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Op {
    /// Push a number.
    Num(f64),
    /// Push a string constant (index into [`Program::strings`]).
    Str(u32),
    /// Push `true` / `false`.
    Bool(bool),
    /// Push null.
    Null,
    /// Push local slot.
    LoadLocal(u16),
    /// Store top of stack into local slot (pops).
    StoreLocal(u16),
    /// Push a global by name index.
    LoadGlobal(u32),
    /// Store top of stack into a global by name index (pops).
    StoreGlobal(u32),
    /// Binary ops (pop two, push one).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Modulo.
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Numeric negation.
    Neg,
    /// Boolean not.
    Not,
    /// Unconditional jump to absolute instruction index.
    Jump(u32),
    /// Pop; jump when false.
    JumpIfFalse(u32),
    /// Peek; jump when false (short-circuit `&&`), else pop.
    JumpIfFalsePeek(u32),
    /// Peek; jump when true (short-circuit `||`), else pop.
    JumpIfTruePeek(u32),
    /// Pop and discard.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Pop and store into the implicit script result register.
    SetResult,
    /// Push a function value for chunk index (bound to the running program).
    Closure(u32),
    /// Build an array from the top `n` stack values.
    MakeArray(u16),
    /// Push a fresh empty object.
    MakeObject,
    /// Pop a value, set it as property `name` on the object now on top,
    /// leaving the object (object-literal construction).
    InitProp(u32),
    /// Pop index and container, push element.
    GetIndex,
    /// Pop value, index, container; perform store; push value.
    SetIndex,
    /// Pop container, push property by name index.
    GetProp(u32),
    /// Pop value and container, set property, push value.
    SetProp(u32),
    /// Call with `n` arguments; callee is below the arguments.
    Call(u16),
    /// Return from the current frame (pops return value).
    Return,
}

/// A compiled function body (or the script's top level).
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Chunk {
    /// Function name (`<main>` for the top level).
    pub(crate) name: String,
    /// Number of parameters.
    pub(crate) num_params: u16,
    /// Total local slots (params + lets).
    pub(crate) num_locals: u16,
    /// The instructions.
    pub(crate) code: Vec<Op>,
}

/// A compiled script: its chunks, string constants, and global names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Chunk 0 is the script top level.
    pub(crate) chunks: Vec<Chunk>,
    /// String constant pool.
    pub(crate) strings: Vec<String>,
    /// Global name pool (identifiers referenced at global scope).
    pub(crate) names: Vec<String>,
    /// Original source length (drives import-cost accounting).
    pub(crate) source_len: usize,
}

impl Program {
    /// Approximate compiled size in bytes, used for heap commit accounting
    /// (a rough stand-in for machine code + metadata a JIT would emit).
    pub(crate) fn code_bytes(&self) -> usize {
        let ops: usize = self.chunks.iter().map(|c| c.code.len()).sum();
        let strings: usize = self.strings.iter().map(|s| s.len()).sum();
        let names: usize = self.names.iter().map(|s| s.len()).sum();
        ops * 8 + strings + names + self.chunks.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_bytes_scales_with_ops() {
        let mut p = Program::default();
        p.chunks.push(Chunk {
            name: "<main>".into(),
            num_params: 0,
            num_locals: 0,
            code: vec![Op::Null; 10],
        });
        let small = p.code_bytes();
        p.chunks[0].code.extend(vec![Op::Pop; 100]);
        assert!(p.code_bytes() > small);
    }
}
