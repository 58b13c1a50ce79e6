//! The stack VM and the [`Interpreter`] that hosts it.
//!
//! The interpreter owns everything that survives across runs — globals,
//! loaded programs, the object store, the bump heap, lazy-init latches —
//! because that persistence is exactly what SEUSS snapshots capture: an
//! interpreter that has already compiled and executed something resumes
//! with those latches set and those pages dirty.
//!
//! Execution is resumable. `http_get` suspends the VM with
//! [`VmExit::Blocked`] so the discrete-event simulation can model the
//! blocking external call; fuel exhaustion suspends with
//! [`VmExit::OutOfFuel`]. Both resume via [`Interpreter::resume`].

use std::collections::HashMap;
use std::rc::Rc;

use crate::bytecode::{Op, Program};
use crate::compile::{compile, CompileError};
use crate::heap::{BumpHeap, HeapBackend, HeapError};
use crate::profile::RuntimeProfile;
use crate::value::{ObjStore, StrRef, Value};

/// Identifier of a loaded program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgId(pub u32);

/// A host call that suspends the VM.
#[derive(Clone, Debug, PartialEq)]
pub enum HostCall {
    /// `http_get(url)`: blocking external HTTP request.
    HttpGet(String),
}

/// How a (possibly partial) run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum VmExit {
    /// The script/function finished with this value.
    Done(Value),
    /// Suspended on a host call; resume with the call's result.
    Blocked(HostCall),
    /// Suspended on fuel exhaustion; resume to continue.
    OutOfFuel,
}

/// Script-level runtime errors (these kill the invocation, not the host).
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// Reference to an undefined variable.
    Undefined(String),
    /// Operation applied to the wrong type.
    Type(String),
    /// Heap exhaustion or backend fault.
    Heap(HeapError),
    /// `resume` called with no suspended run.
    NotSuspended,
    /// Named global is not callable / not found for `call_global`.
    NotCallable(String),
}

impl core::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RuntimeError::Undefined(n) => write!(f, "undefined variable '{n}'"),
            RuntimeError::Type(m) => write!(f, "type error: {m}"),
            RuntimeError::Heap(e) => write!(f, "heap error: {e}"),
            RuntimeError::NotSuspended => write!(f, "no suspended execution to resume"),
            RuntimeError::NotCallable(n) => write!(f, "'{n}' is not callable"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<HeapError> for RuntimeError {
    fn from(e: HeapError) -> Self {
        RuntimeError::Heap(e)
    }
}

/// Errors from loading source into the interpreter.
#[derive(Clone, Debug, PartialEq)]
pub enum LoadError {
    /// The source failed to compile.
    Compile(CompileError),
    /// Committing the compiled artifact to the heap failed.
    Heap(HeapError),
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Compile(e) => write!(f, "{e}"),
            LoadError::Heap(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

const BUILTINS: &[&str] = &[
    "log",         // 0
    "spin",        // 1
    "http_get",    // 2
    "len",         // 3
    "str",         // 4
    "num",         // 5
    "push",        // 6
    "floor",       // 7
    "sqrt",        // 8
    "abs",         // 9
    "max",         // 10
    "min",         // 11
    "random",      // 12
    "alloc_bytes", // 13
    "json",        // 14
    "keys",        // 15
    "substr",      // 16
    "upper",       // 17
    "lower",       // 18
    "contains",    // 19
];

#[derive(Clone)]
struct Frame {
    prog: u32,
    chunk: u32,
    ip: usize,
    locals: Vec<Value>,
}

#[derive(Clone)]
struct Suspended {
    frames: Vec<Frame>,
    stack: Vec<Value>,
    /// Whether the suspension awaits a host-call result value.
    awaiting_value: bool,
}

/// The persistent language runtime: programs, globals, heap, latches.
///
/// `Clone` is load-bearing: a snapshot stores the interpreter state as of
/// capture (the semantic mirror of the captured guest pages), and deploys
/// clone it. The kernel wraps interpreters in `Rc` so idle deploys stay
/// cheap and copies materialize only on mutation, and a copy shares
/// structure with its original down to single objects:
/// - loaded programs never change and sit behind their own `Rc`;
/// - globals and interned strings sit behind one `Rc` each, copied on the
///   first write after the copy;
/// - each object is either *own* (inline, created or written since the
///   last [`Interpreter::freeze`]) or *shared* (frozen behind an `Rc` by a
///   capture). A copy bumps the shared objects' counts, and the first
///   write to a shared object copies that object alone.
#[derive(Clone)]
pub struct Interpreter {
    profile: RuntimeProfile,
    heap: BumpHeap,
    objects: ObjStore,
    globals: Rc<HashMap<String, Value>>,
    programs: Vec<Rc<Program>>,
    /// Host-side mirror of interned strings, keyed by guest address.
    strings: Rc<HashMap<u64, String>>,
    result: Value,
    cycles: u64,
    did_first_compile: bool,
    did_first_exec: bool,
    /// Whether `console` is in `globals` (set with it, by
    /// `ensure_builtins`; globals are never removed).
    has_builtins: bool,
    suspended: Option<Suspended>,
    rng: u64,
}

impl Interpreter {
    /// Creates a runtime with the given profile.
    pub fn new(profile: RuntimeProfile) -> Self {
        Interpreter {
            profile,
            heap: BumpHeap::new(profile.heap_base, profile.heap_size),
            objects: ObjStore::new(),
            globals: Rc::default(),
            programs: Vec::new(),
            strings: Rc::default(),
            result: Value::Null,
            cycles: 0,
            did_first_compile: false,
            did_first_exec: false,
            has_builtins: false,
            suspended: None,
            rng: 0x5EED_5EED,
        }
    }

    /// Shares every object created or written so far with the copies
    /// made from here on: a capture freezes the interpreter it stores, so
    /// the UCs deployed from it copy only the objects they write.
    pub fn freeze(&mut self) {
        self.objects.freeze();
    }

    /// Objects held inline rather than shared: those created or written
    /// since the last [`Interpreter::freeze`].
    pub fn own_objects(&self) -> usize {
        self.objects.own_count()
    }

    /// Total virtual cycles consumed so far (monotone; 1 cycle ≈ 1 ns).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Compiles and loads source, charging compile-time heap traffic and
    /// cycles (including the one-time first-compile initialization).
    pub fn load_source(
        &mut self,
        backend: &mut dyn HeapBackend,
        src: &str,
    ) -> Result<ProgId, LoadError> {
        let program = compile(src).map_err(LoadError::Compile)?;
        self.load(backend, program).map_err(LoadError::Heap)
    }

    /// Loads a pre-compiled program, charging the same costs as
    /// [`Interpreter::load_source`].
    pub(crate) fn load(
        &mut self,
        backend: &mut dyn HeapBackend,
        program: Program,
    ) -> Result<ProgId, HeapError> {
        if !self.did_first_compile {
            self.did_first_compile = true;
            self.heap
                .alloc_committed(backend, self.profile.first_compile_extra_bytes)?;
            self.cycles += self.profile.first_compile_extra_cycles;
        }
        let src_len = program.source_len as u64;
        let commit = self.profile.per_compile_fixed_bytes
            + self.profile.per_compile_bytes_per_src_byte * src_len
            + program.code_bytes() as u64;
        self.heap.alloc_committed(backend, commit)?;
        self.cycles +=
            self.profile.compile_cycles_fixed + self.profile.compile_cycles_per_src_byte * src_len;
        self.programs.push(Rc::new(program));
        Ok(ProgId(self.programs.len() as u32 - 1))
    }

    /// One-time charge on the first *function-body* execution (V8-style
    /// IC/feedback-vector materialization). Top-level module evaluation
    /// does not trigger it — which is why a function snapshot captured
    /// after import-and-compile still pays this on its first warm run
    /// (Table 2's E term).
    fn ensure_first_exec(&mut self, backend: &mut dyn HeapBackend) -> Result<(), HeapError> {
        if self.did_first_exec {
            return Ok(());
        }
        self.did_first_exec = true;
        self.heap
            .alloc_committed(backend, self.profile.first_exec_extra_bytes)?;
        self.cycles += self.profile.first_exec_extra_cycles;
        Ok(())
    }

    /// Materializes the builtin namespace objects (console, Math) on the
    /// first execution of any code, without the first-exec charge.
    fn ensure_builtins(&mut self, backend: &mut dyn HeapBackend) -> Result<(), HeapError> {
        if self.has_builtins {
            return Ok(());
        }
        // Materialize the builtin namespace objects.
        let console = self.objects.new_object(&mut self.heap, backend)?;
        self.objects
            .set_prop(&mut self.heap, backend, console, "log", Value::Builtin(0))?;
        self.objects
            .set_prop(&mut self.heap, backend, console, "error", Value::Builtin(0))?;
        Rc::make_mut(&mut self.globals).insert("console".into(), Value::Object(console));
        self.has_builtins = true;
        let math = self.objects.new_object(&mut self.heap, backend)?;
        for (name, idx) in [
            ("floor", 7u32),
            ("sqrt", 8),
            ("abs", 9),
            ("max", 10),
            ("min", 11),
            ("random", 12),
        ] {
            self.objects
                .set_prop(&mut self.heap, backend, math, name, Value::Builtin(idx))?;
        }
        Rc::make_mut(&mut self.globals).insert("Math".into(), Value::Object(math));
        Ok(())
    }

    fn intern(&mut self, backend: &mut dyn HeapBackend, s: &str) -> Result<StrRef, HeapError> {
        let addr = self.heap.alloc_bytes(backend, s.len() as u64)?;
        let r = StrRef {
            addr,
            len: s.len() as u32,
        };
        Rc::make_mut(&mut self.strings).insert(addr, s.to_string());
        Ok(r)
    }

    /// The host-side text of an interned string.
    pub(crate) fn str_text(&self, r: StrRef) -> &str {
        self.strings.get(&r.addr).map(|s| s.as_str()).unwrap_or("")
    }

    /// Renders a value for logging / result reporting.
    pub fn display(&self, v: Value) -> String {
        match v {
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", n as i64)
                } else {
                    format!("{n}")
                }
            }
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".into(),
            Value::Str(s) => self.str_text(s).to_string(),
            Value::Array(id) => format!("[array len {}]", self.objects.array_len(id)),
            Value::Object(id) => format!("[object props {}]", self.objects.prop_count(id)),
            Value::Function(..) => "[function]".into(),
            Value::Builtin(i) => format!("[builtin {}]", BUILTINS[i as usize]),
        }
    }

    /// Runs a loaded program's top level.
    pub fn run_main(
        &mut self,
        backend: &mut dyn HeapBackend,
        prog: ProgId,
        fuel: u64,
    ) -> Result<VmExit, RuntimeError> {
        self.ensure_builtins(backend)?;
        self.result = Value::Null;
        let chunk = &self.programs[prog.0 as usize].chunks[0];
        let frame = Frame {
            prog: prog.0,
            chunk: 0,
            ip: 0,
            locals: vec![Value::Null; chunk.num_locals as usize],
        };
        self.suspended = Some(Suspended {
            frames: vec![frame],
            stack: Vec::new(),
            awaiting_value: false,
        });
        self.execute(backend, fuel)
    }

    /// Calls a global function by name (the invocation driver's entry).
    pub fn call_global(
        &mut self,
        backend: &mut dyn HeapBackend,
        name: &str,
        args: &[Value],
        fuel: u64,
    ) -> Result<VmExit, RuntimeError> {
        self.ensure_builtins(backend)?;
        self.ensure_first_exec(backend)?;
        let Some(&Value::Function(prog, chunk)) = self.globals.get(name) else {
            return Err(RuntimeError::NotCallable(name.to_string()));
        };
        let c = &self.programs[prog as usize].chunks[chunk as usize];
        let mut locals = vec![Value::Null; c.num_locals as usize];
        for (i, a) in args.iter().take(c.num_params as usize).enumerate() {
            locals[i] = *a;
        }
        let frame = Frame {
            prog,
            chunk,
            ip: 0,
            locals,
        };
        self.suspended = Some(Suspended {
            frames: vec![frame],
            stack: Vec::new(),
            awaiting_value: false,
        });
        self.execute(backend, fuel)
    }

    /// Resumes a suspended run, pushing `value` as the host-call result
    /// (ignored after fuel exhaustion… a `Null` is conventional there).
    pub fn resume(
        &mut self,
        backend: &mut dyn HeapBackend,
        value: Value,
        fuel: u64,
    ) -> Result<VmExit, RuntimeError> {
        match &mut self.suspended {
            Some(s) if !s.frames.is_empty() => {
                if s.awaiting_value {
                    s.stack.push(value);
                    s.awaiting_value = false;
                }
                self.execute(backend, fuel)
            }
            _ => Err(RuntimeError::NotSuspended),
        }
    }

    /// Runs a moving-GC compaction pass: every live object's backing
    /// store relocates to fresh pages. Returns `(objects moved, bytes
    /// rewritten)`. See `ObjStore::compact` for why this matters to COW.
    pub fn run_gc(&mut self, backend: &mut dyn HeapBackend) -> Result<(u64, u64), RuntimeError> {
        let r = self.objects.compact(&mut self.heap, backend)?;
        // Copying costs cycles proportional to bytes moved.
        self.cycles += r.1 / 8;
        Ok(r)
    }

    /// Allocates a string value (hosts use this to pass arguments in).
    pub fn make_str(
        &mut self,
        backend: &mut dyn HeapBackend,
        s: &str,
    ) -> Result<Value, RuntimeError> {
        Ok(Value::Str(self.intern(backend, s)?))
    }

    /// Allocates an object value from string properties (invocation args).
    pub fn make_arg_object(
        &mut self,
        backend: &mut dyn HeapBackend,
        props: &[(&str, &str)],
    ) -> Result<Value, RuntimeError> {
        let id = self.objects.new_object(&mut self.heap, backend)?;
        for (k, v) in props {
            let vs = self.intern(backend, v)?;
            self.objects
                .set_prop(&mut self.heap, backend, id, k, Value::Str(vs))?;
        }
        Ok(Value::Object(id))
    }

    /// Renders a value as JSON (depth-capped; cycles render as null).
    fn to_json(&self, v: Value, depth: u32) -> String {
        if depth > 16 {
            return "null".into();
        }
        match v {
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", n as i64)
                } else {
                    format!("{n}")
                }
            }
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".into(),
            Value::Str(s) => format!("{:?}", self.str_text(s)),
            Value::Array(id) => {
                let items: Vec<String> = (0..self.objects.array_len(id))
                    .map(|i| self.to_json(self.objects.get_index(id, i), depth + 1))
                    .collect();
                format!("[{}]", items.join(","))
            }
            Value::Object(id) => {
                let mut keys = self.objects.prop_keys(id);
                keys.sort();
                let items: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        format!(
                            "{:?}:{}",
                            k,
                            self.to_json(self.objects.get_prop(id, k), depth + 1)
                        )
                    })
                    .collect();
                format!("{{{}}}", items.join(","))
            }
            Value::Function(..) | Value::Builtin(_) => "null".into(),
        }
    }

    fn next_random(&mut self) -> f64 {
        // xorshift64*; deterministic Math.random.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[allow(clippy::too_many_lines)]
    fn execute(
        &mut self,
        backend: &mut dyn HeapBackend,
        mut fuel: u64,
    ) -> Result<VmExit, RuntimeError> {
        let Suspended {
            mut frames,
            mut stack,
            awaiting_value: _,
        } = self.suspended.take().ok_or(RuntimeError::NotSuspended)?;

        macro_rules! suspend {
            ($exit:expr, $awaiting:expr) => {{
                self.suspended = Some(Suspended {
                    frames,
                    stack,
                    awaiting_value: $awaiting,
                });
                return Ok($exit);
            }};
        }

        'outer: loop {
            let Some(frame) = frames.last_mut() else {
                // call_global path drains frames by pushing the return
                // value; main path uses the result register.
                let v = stack.pop().unwrap_or(self.result);
                return Ok(VmExit::Done(v));
            };
            let chunk = &self.programs[frame.prog as usize].chunks[frame.chunk as usize];
            if frame.ip >= chunk.code.len() {
                // Fell off the end (defensive; compiler always emits Return).
                frames.pop();
                stack.push(Value::Null);
                continue;
            }
            if fuel == 0 {
                suspend!(VmExit::OutOfFuel, false);
            }
            fuel -= 1;
            self.cycles += 1;
            let op = chunk.code[frame.ip];
            frame.ip += 1;
            let prog_idx = frame.prog;

            macro_rules! pop {
                () => {
                    stack.pop().expect("compiler guarantees stack depth")
                };
            }
            macro_rules! bin_num {
                ($op:tt) => {{
                    let b = pop!();
                    let a = pop!();
                    match (a, b) {
                        (Value::Num(x), Value::Num(y)) => stack.push(Value::Num(x $op y)),
                        (a, b) => {
                            self.suspended = None;
                            return Err(RuntimeError::Type(format!(
                                "numeric op on {} and {}",
                                a.type_name(),
                                b.type_name()
                            )));
                        }
                    }
                }};
            }
            macro_rules! cmp_num {
                ($op:tt) => {{
                    let b = pop!();
                    let a = pop!();
                    match (a, b) {
                        (Value::Num(x), Value::Num(y)) => stack.push(Value::Bool(x $op y)),
                        (Value::Str(x), Value::Str(y)) => {
                            let xs = self.str_text(x).to_string();
                            let ys = self.str_text(y).to_string();
                            stack.push(Value::Bool(xs.as_str() $op ys.as_str()));
                        }
                        (a, b) => {
                            self.suspended = None;
                            return Err(RuntimeError::Type(format!(
                                "comparison on {} and {}",
                                a.type_name(),
                                b.type_name()
                            )));
                        }
                    }
                }};
            }

            match op {
                Op::Num(n) => stack.push(Value::Num(n)),
                Op::Str(i) => {
                    let s = self.programs[prog_idx as usize].strings[i as usize].clone();
                    let v = Value::Str(self.intern(backend, &s)?);
                    stack.push(v);
                }
                Op::Bool(b) => stack.push(Value::Bool(b)),
                Op::Null => stack.push(Value::Null),
                Op::LoadLocal(slot) => {
                    let v = frame.locals[slot as usize];
                    stack.push(v);
                }
                Op::StoreLocal(slot) => {
                    let v = pop!();
                    if frame.locals.len() <= slot as usize {
                        frame.locals.resize(slot as usize + 1, Value::Null);
                    }
                    frame.locals[slot as usize] = v;
                }
                Op::LoadGlobal(n) => {
                    let name = &self.programs[prog_idx as usize].names[n as usize];
                    let v = match self.globals.get(name) {
                        Some(v) => *v,
                        None => match BUILTINS.iter().position(|b| b == name) {
                            Some(i) => Value::Builtin(i as u32),
                            None => {
                                let name = name.clone();
                                self.suspended = None;
                                return Err(RuntimeError::Undefined(name));
                            }
                        },
                    };
                    stack.push(v);
                }
                Op::StoreGlobal(n) => {
                    let v = pop!();
                    let name = self.programs[prog_idx as usize].names[n as usize].clone();
                    Rc::make_mut(&mut self.globals).insert(name, v);
                }
                Op::Add => {
                    let b = pop!();
                    let a = pop!();
                    match (a, b) {
                        (Value::Num(x), Value::Num(y)) => stack.push(Value::Num(x + y)),
                        (Value::Str(_), _) | (_, Value::Str(_)) => {
                            let s = format!("{}{}", self.display(a), self.display(b));
                            let v = Value::Str(self.intern(backend, &s)?);
                            stack.push(v);
                        }
                        (a, b) => {
                            self.suspended = None;
                            return Err(RuntimeError::Type(format!(
                                "cannot add {} and {}",
                                a.type_name(),
                                b.type_name()
                            )));
                        }
                    }
                }
                Op::Sub => bin_num!(-),
                Op::Mul => bin_num!(*),
                Op::Div => bin_num!(/),
                Op::Mod => bin_num!(%),
                Op::Eq | Op::Ne => {
                    let b = pop!();
                    let a = pop!();
                    let eq = match (a, b) {
                        (Value::Str(x), Value::Str(y)) => {
                            x == y || self.str_text(x) == self.str_text(y)
                        }
                        (a, b) => a == b,
                    };
                    stack.push(Value::Bool(if matches!(op, Op::Eq) { eq } else { !eq }));
                }
                Op::Lt => cmp_num!(<),
                Op::Le => cmp_num!(<=),
                Op::Gt => cmp_num!(>),
                Op::Ge => cmp_num!(>=),
                Op::Neg => {
                    let a = pop!();
                    match a {
                        Value::Num(n) => stack.push(Value::Num(-n)),
                        other => {
                            self.suspended = None;
                            return Err(RuntimeError::Type(format!(
                                "cannot negate {}",
                                other.type_name()
                            )));
                        }
                    }
                }
                Op::Not => {
                    let a = pop!();
                    stack.push(Value::Bool(!a.truthy()));
                }
                Op::Jump(t) => frame.ip = t as usize,
                Op::JumpIfFalse(t) => {
                    if !pop!().truthy() {
                        frame.ip = t as usize;
                    }
                }
                Op::JumpIfFalsePeek(t) => {
                    let v = *stack.last().expect("operand present");
                    if !v.truthy() {
                        frame.ip = t as usize;
                    } else {
                        stack.pop();
                    }
                }
                Op::JumpIfTruePeek(t) => {
                    let v = *stack.last().expect("operand present");
                    if v.truthy() {
                        frame.ip = t as usize;
                    } else {
                        stack.pop();
                    }
                }
                Op::Pop => {
                    pop!();
                }
                Op::Dup => {
                    let v = *stack.last().expect("operand present");
                    stack.push(v);
                }
                Op::SetResult => {
                    self.result = pop!();
                }
                Op::Closure(chunk_idx) => {
                    stack.push(Value::Function(prog_idx, chunk_idx));
                }
                Op::MakeArray(n) => {
                    let id = self.objects.new_array(&mut self.heap, backend)?;
                    let base = stack.len() - n as usize;
                    for (i, v) in stack.drain(base..).enumerate() {
                        self.objects
                            .set_index(&mut self.heap, backend, id, i as u64, v)?;
                    }
                    stack.push(Value::Array(id));
                }
                Op::MakeObject => {
                    let id = self.objects.new_object(&mut self.heap, backend)?;
                    stack.push(Value::Object(id));
                }
                Op::InitProp(n) => {
                    let v = pop!();
                    let Some(&Value::Object(id)) = stack.last() else {
                        self.suspended = None;
                        return Err(RuntimeError::Type("InitProp on non-object".into()));
                    };
                    let name = self.programs[prog_idx as usize].names[n as usize].clone();
                    self.objects
                        .set_prop(&mut self.heap, backend, id, &name, v)?;
                }
                Op::GetIndex => {
                    let idx = pop!();
                    let container = pop!();
                    let v = match (container, idx) {
                        (Value::Array(id), Value::Num(i)) if i >= 0.0 => {
                            self.objects.get_index(id, i as u64)
                        }
                        (Value::Object(id), Value::Str(s)) => {
                            let key = self.str_text(s).to_string();
                            self.objects.get_prop(id, &key)
                        }
                        (c, i) => {
                            self.suspended = None;
                            return Err(RuntimeError::Type(format!(
                                "cannot index {} with {}",
                                c.type_name(),
                                i.type_name()
                            )));
                        }
                    };
                    stack.push(v);
                }
                Op::SetIndex => {
                    let v = pop!();
                    let idx = pop!();
                    let container = pop!();
                    match (container, idx) {
                        (Value::Array(id), Value::Num(i)) if i >= 0.0 => {
                            self.objects
                                .set_index(&mut self.heap, backend, id, i as u64, v)?;
                        }
                        (Value::Object(id), Value::Str(s)) => {
                            let key = self.str_text(s).to_string();
                            self.objects
                                .set_prop(&mut self.heap, backend, id, &key, v)?;
                        }
                        (c, i) => {
                            self.suspended = None;
                            return Err(RuntimeError::Type(format!(
                                "cannot index-assign {} with {}",
                                c.type_name(),
                                i.type_name()
                            )));
                        }
                    }
                    stack.push(v);
                }
                Op::GetProp(n) => {
                    let container = pop!();
                    let name = &self.programs[prog_idx as usize].names[n as usize];
                    let v = match container {
                        Value::Object(id) | Value::Array(id) => self.objects.get_prop(id, name),
                        Value::Str(s) if name == "length" => Value::Num(s.len as f64),
                        other => {
                            let name = name.clone();
                            self.suspended = None;
                            return Err(RuntimeError::Type(format!(
                                "no property '{name}' on {}",
                                other.type_name()
                            )));
                        }
                    };
                    stack.push(v);
                }
                Op::SetProp(n) => {
                    let v = pop!();
                    let container = pop!();
                    let name = self.programs[prog_idx as usize].names[n as usize].clone();
                    match container {
                        Value::Object(id) => {
                            self.objects
                                .set_prop(&mut self.heap, backend, id, &name, v)?;
                        }
                        other => {
                            self.suspended = None;
                            return Err(RuntimeError::Type(format!(
                                "cannot set property on {}",
                                other.type_name()
                            )));
                        }
                    }
                    stack.push(v);
                }
                Op::Call(nargs) => {
                    let nargs = nargs as usize;
                    let callee_pos = stack.len() - nargs - 1;
                    let callee = stack[callee_pos];
                    match callee {
                        Value::Function(p, c) => {
                            let target = &self.programs[p as usize].chunks[c as usize];
                            let mut locals = vec![Value::Null; target.num_locals as usize];
                            let args: Vec<Value> = stack.drain(callee_pos + 1..).collect();
                            stack.pop(); // callee
                            for (i, a) in args.iter().take(target.num_params as usize).enumerate() {
                                locals[i] = *a;
                            }
                            frames.push(Frame {
                                prog: p,
                                chunk: c,
                                ip: 0,
                                locals,
                            });
                            continue 'outer;
                        }
                        Value::Builtin(b) => {
                            let args: Vec<Value> = stack.drain(callee_pos + 1..).collect();
                            stack.pop(); // callee
                            match self.builtin(backend, b, &args)? {
                                BuiltinResult::Value(v) => stack.push(v),
                                BuiltinResult::Block(call) => {
                                    suspend!(VmExit::Blocked(call), true);
                                }
                            }
                        }
                        other => {
                            self.suspended = None;
                            return Err(RuntimeError::Type(format!(
                                "cannot call {}",
                                other.type_name()
                            )));
                        }
                    }
                }
                Op::Return => {
                    let v = pop!();
                    frames.pop();
                    stack.push(v);
                    if frames.is_empty() {
                        // For run_main the interesting value is the result
                        // register; for call_global it is the return value.
                        let ret = stack.pop().expect("just pushed");
                        let v = if matches!(ret, Value::Null) {
                            self.result
                        } else {
                            ret
                        };
                        return Ok(VmExit::Done(v));
                    }
                }
            }
        }
    }

    fn builtin(
        &mut self,
        backend: &mut dyn HeapBackend,
        idx: u32,
        args: &[Value],
    ) -> Result<BuiltinResult, RuntimeError> {
        let num = |v: &Value| -> f64 {
            match v {
                Value::Num(n) => *n,
                Value::Bool(true) => 1.0,
                _ => 0.0,
            }
        };
        let v = match idx {
            0 => Value::Null, // console.log: rendering cost only
            1 => {
                // spin(n): consume n virtual cycles of CPU.
                let n = args.first().map(num).unwrap_or(0.0).max(0.0);
                self.cycles += n as u64;
                Value::Null
            }
            2 => {
                let url = match args.first() {
                    Some(Value::Str(s)) => self.str_text(*s).to_string(),
                    _ => String::new(),
                };
                return Ok(BuiltinResult::Block(HostCall::HttpGet(url)));
            }
            3 => match args.first() {
                Some(Value::Array(id)) => Value::Num(self.objects.array_len(*id) as f64),
                Some(Value::Str(s)) => Value::Num(s.len as f64),
                Some(Value::Object(id)) => Value::Num(self.objects.prop_count(*id) as f64),
                _ => Value::Num(0.0),
            },
            4 => {
                let s = args.first().map(|v| self.display(*v)).unwrap_or_default();
                Value::Str(self.intern(backend, &s)?)
            }
            5 => match args.first() {
                Some(Value::Str(s)) => {
                    Value::Num(self.str_text(*s).trim().parse::<f64>().unwrap_or(f64::NAN))
                }
                Some(v) => Value::Num(num(v)),
                None => Value::Num(f64::NAN),
            },
            6 => match args.first() {
                Some(Value::Array(id)) => {
                    let v = args.get(1).copied().unwrap_or(Value::Null);
                    Value::Num(self.objects.push(&mut self.heap, backend, *id, v)? as f64)
                }
                _ => return Err(RuntimeError::Type("push expects an array".into())),
            },
            7 => Value::Num(args.first().map(num).unwrap_or(0.0).floor()),
            8 => Value::Num(args.first().map(num).unwrap_or(0.0).sqrt()),
            9 => Value::Num(args.first().map(num).unwrap_or(0.0).abs()),
            10 => Value::Num(args.iter().map(num).fold(f64::NEG_INFINITY, f64::max)),
            11 => Value::Num(args.iter().map(num).fold(f64::INFINITY, f64::min)),
            12 => Value::Num(self.next_random()),
            13 => {
                // alloc_bytes(n): raw committed allocation (memory-stress
                // workloads).
                let n = args.first().map(num).unwrap_or(0.0).max(0.0) as u64;
                let addr = self.heap.alloc_committed(backend, n)?;
                Value::Num(addr as f64)
            }
            14 => {
                let s = self.to_json(args.first().copied().unwrap_or(Value::Null), 0);
                Value::Str(self.intern(backend, &s)?)
            }
            15 => match args.first() {
                Some(Value::Object(id)) => {
                    let keys = self.objects.prop_keys(*id);
                    let arr = self.objects.new_array(&mut self.heap, backend)?;
                    for (i, k) in keys.iter().enumerate() {
                        let v = Value::Str(self.intern(backend, k)?);
                        self.objects
                            .set_index(&mut self.heap, backend, arr, i as u64, v)?;
                    }
                    Value::Array(arr)
                }
                _ => Value::Null,
            },
            16 => match args.first() {
                Some(Value::Str(r)) => {
                    let text = self.str_text(*r).to_string();
                    let a = (args.get(1).map(num).unwrap_or(0.0).max(0.0) as usize).min(text.len());
                    let b = (args.get(2).map(num).unwrap_or(text.len() as f64).max(0.0) as usize)
                        .clamp(a, text.len());
                    // Clamp to char boundaries for non-ASCII safety.
                    let a = (a..=text.len())
                        .find(|&i| text.is_char_boundary(i))
                        .unwrap_or(0);
                    let b = (b..=text.len())
                        .find(|&i| text.is_char_boundary(i))
                        .unwrap_or(text.len());
                    Value::Str(self.intern(backend, &text[a..b])?)
                }
                _ => Value::Null,
            },
            17 | 18 => match args.first() {
                Some(Value::Str(r)) => {
                    let text = self.str_text(*r);
                    let out = if idx == 17 {
                        text.to_uppercase()
                    } else {
                        text.to_lowercase()
                    };
                    Value::Str(self.intern(backend, &out)?)
                }
                _ => Value::Null,
            },
            19 => match (args.first(), args.get(1)) {
                (Some(Value::Str(h)), Some(Value::Str(n))) => {
                    let hay = self.str_text(*h).to_string();
                    Value::Bool(hay.contains(self.str_text(*n)))
                }
                _ => Value::Bool(false),
            },
            _ => Value::Null,
        };
        Ok(BuiltinResult::Value(v))
    }
}

enum BuiltinResult {
    Value(Value),
    Block(HostCall),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HostHeap;

    fn run(src: &str) -> Value {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let prog = interp.load_source(&mut backend, src).unwrap();
        match interp.run_main(&mut backend, prog, u64::MAX).unwrap() {
            VmExit::Done(v) => v,
            other => panic!("unexpected exit {other:?}"),
        }
    }

    fn run_str(src: &str) -> String {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let prog = interp.load_source(&mut backend, src).unwrap();
        match interp.run_main(&mut backend, prog, u64::MAX).unwrap() {
            VmExit::Done(v) => interp.display(v),
            other => panic!("unexpected exit {other:?}"),
        }
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("1 + 2 * 3 - 4 / 2;"), Value::Num(5.0));
        assert_eq!(run("7 % 3;"), Value::Num(1.0));
        assert_eq!(run("-(2 + 3);"), Value::Num(-5.0));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(run("1 < 2;"), Value::Bool(true));
        assert_eq!(run("2 <= 1;"), Value::Bool(false));
        assert_eq!(run("1 == 1 && 2 != 3;"), Value::Bool(true));
        assert_eq!(run("false || true;"), Value::Bool(true));
        assert_eq!(run("!false;"), Value::Bool(true));
    }

    #[test]
    fn short_circuit_skips_rhs() {
        // RHS would be an undefined-variable error if evaluated.
        assert_eq!(run("false && nope;"), Value::Bool(false));
        assert_eq!(run("true || nope;"), Value::Bool(true));
    }

    #[test]
    fn globals_and_assignment() {
        assert_eq!(run("let x = 10; x = x + 5; x;"), Value::Num(15.0));
        assert_eq!(
            run("let x = 10; x += 5; x *= 2; x -= 3; x;"),
            Value::Num(27.0)
        );
        assert_eq!(run("let a = [5]; a[0] += 2; a[0];"), Value::Num(7.0));
        assert_eq!(run("let o = { n: 1 }; o.n += 41; o.n;"), Value::Num(42.0));
    }

    #[test]
    fn while_loop_sums() {
        assert_eq!(
            run("let s = 0; let i = 1; while (i <= 10) { s = s + i; i = i + 1; } s;"),
            Value::Num(55.0)
        );
    }

    #[test]
    fn for_loop_desugar_runs() {
        assert_eq!(
            run("let s = 0; for (let i = 0; i < 5; i = i + 1) { s = s + i; } s;"),
            Value::Num(10.0)
        );
    }

    #[test]
    fn break_and_continue() {
        assert_eq!(
            run("let s = 0; let i = 0; while (true) { i = i + 1; if (i > 10) { break; } if (i % 2 == 0) { continue; } s = s + i; } s;"),
            Value::Num(25.0)
        );
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            run(
                "function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } fib(10);"
            ),
            Value::Num(55.0)
        );
    }

    #[test]
    fn function_locals_are_scoped() {
        assert_eq!(
            run("let x = 1; function f() { let x = 99; return x; } f() + x;"),
            Value::Num(100.0)
        );
    }

    #[test]
    fn strings_concat_and_compare() {
        assert_eq!(run_str("'ab' + 'cd';"), "abcd");
        assert_eq!(run_str("'a' + 1;"), "a1");
        assert_eq!(run_str("1 + 'a';"), "1a");
    }

    #[test]
    fn string_eq_by_content() {
        assert_eq!(run("'abc' == 'ab' + 'c';"), Value::Bool(true));
        assert_eq!(run("'abc' != 'abd';"), Value::Bool(true));
        assert_eq!(run("'a' < 'b';"), Value::Bool(true));
    }

    #[test]
    fn arrays_and_objects() {
        assert_eq!(run("let a = [1, 2, 3]; a[1];"), Value::Num(2.0));
        assert_eq!(run("let a = [1]; a[0] = 9; a[0];"), Value::Num(9.0));
        assert_eq!(run("let a = [1, 2]; a.length;"), Value::Num(2.0));
        assert_eq!(run("let o = { x: 4 }; o.x;"), Value::Num(4.0));
        assert_eq!(
            run("let o = { x: 4 }; o.y = 6; o.x + o.y;"),
            Value::Num(10.0)
        );
        assert_eq!(run("let o = { a: 1 }; o['a'];"), Value::Num(1.0));
    }

    #[test]
    fn builtins_work() {
        assert_eq!(run("len([1, 2, 3]);"), Value::Num(3.0));
        assert_eq!(run("Math.floor(2.9);"), Value::Num(2.0));
        assert_eq!(run("Math.sqrt(49);"), Value::Num(7.0));
        assert_eq!(run("Math.max(1, 5, 3);"), Value::Num(5.0));
        assert_eq!(run("num('42');"), Value::Num(42.0));
        assert_eq!(run_str("str(12);"), "12");
        assert_eq!(run("let a = []; push(a, 7); a[0];"), Value::Num(7.0));
    }

    #[test]
    fn console_log_is_callable() {
        assert_eq!(run("console.log('hi'); 1;"), Value::Num(1.0));
    }

    #[test]
    fn spin_consumes_cycles() {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let prog = interp
            .load_source(&mut backend, "spin(100000); 1;")
            .unwrap();
        let before = interp.cycles();
        interp.run_main(&mut backend, prog, u64::MAX).unwrap();
        assert!(interp.cycles() - before >= 100_000);
    }

    #[test]
    fn http_get_blocks_and_resumes() {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let prog = interp
            .load_source(&mut backend, "let r = http_get('http://x/y'); r + '!';")
            .unwrap();
        match interp.run_main(&mut backend, prog, u64::MAX).unwrap() {
            VmExit::Blocked(HostCall::HttpGet(url)) => assert_eq!(url, "http://x/y"),
            other => panic!("{other:?}"),
        }
        assert!(interp.suspended.is_some());
        let ok = interp.make_str(&mut backend, "OK").unwrap();
        match interp.resume(&mut backend, ok, u64::MAX).unwrap() {
            VmExit::Done(v) => assert_eq!(interp.display(v), "OK!"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fuel_exhaustion_suspends_and_resumes() {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let prog = interp
            .load_source(
                &mut backend,
                "let s = 0; let i = 0; while (i < 1000) { s = s + i; i = i + 1; } s;",
            )
            .unwrap();
        let mut exit = interp.run_main(&mut backend, prog, 100).unwrap();
        let mut rounds = 0;
        while exit == VmExit::OutOfFuel {
            exit = interp.resume(&mut backend, Value::Null, 500).unwrap();
            rounds += 1;
            assert!(rounds < 100, "stuck");
        }
        match exit {
            VmExit::Done(v) => assert_eq!(v, Value::Num(499_500.0)),
            other => panic!("{other:?}"),
        }
        assert!(rounds > 1);
    }

    #[test]
    fn call_global_invokes_function() {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let prog = interp
            .load_source(&mut backend, "function main(a, b) { return a * b; }")
            .unwrap();
        interp.run_main(&mut backend, prog, u64::MAX).unwrap();
        let exit = interp
            .call_global(
                &mut backend,
                "main",
                &[Value::Num(6.0), Value::Num(7.0)],
                u64::MAX,
            )
            .unwrap();
        assert_eq!(exit, VmExit::Done(Value::Num(42.0)));
    }

    #[test]
    fn call_global_missing_is_error() {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        assert_eq!(
            interp.call_global(&mut backend, "nope", &[], u64::MAX),
            Err(RuntimeError::NotCallable("nope".into()))
        );
    }

    #[test]
    fn undefined_variable_is_error() {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let prog = interp.load_source(&mut backend, "ghost + 1;").unwrap();
        assert_eq!(
            interp.run_main(&mut backend, prog, u64::MAX),
            Err(RuntimeError::Undefined("ghost".into()))
        );
    }

    #[test]
    fn type_errors_reported() {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let prog = interp.load_source(&mut backend, "null * 2;").unwrap();
        assert!(matches!(
            interp.run_main(&mut backend, prog, u64::MAX),
            Err(RuntimeError::Type(_))
        ));
    }

    #[test]
    fn first_compile_latch_fires_once() {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        assert!(!interp.did_first_compile);
        let start = interp.heap.alloc(0).unwrap();
        interp.load_source(&mut backend, "1;").unwrap();
        assert!(interp.did_first_compile);
        let after_first = interp.heap.alloc(0).unwrap();
        interp.load_source(&mut backend, "2;").unwrap();
        let second_cost = interp.heap.alloc(0).unwrap() - after_first;
        // The second compile skips first_compile_extra_bytes.
        assert!(second_cost < after_first - start);
    }

    #[test]
    fn globals_persist_across_programs() {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let p1 = interp.load_source(&mut backend, "let shared = 5;").unwrap();
        interp.run_main(&mut backend, p1, u64::MAX).unwrap();
        let p2 = interp.load_source(&mut backend, "shared + 1;").unwrap();
        match interp.run_main(&mut backend, p2, u64::MAX).unwrap() {
            VmExit::Done(v) => assert_eq!(v, Value::Num(6.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn math_random_is_deterministic() {
        let a = run_str("str(Math.random());");
        let b = run_str("str(Math.random());");
        assert_eq!(a, b, "fresh interpreters with same seed agree");
    }

    #[test]
    fn fib_nested_calls_deep() {
        assert_eq!(
            run("function f(n) { if (n == 0) { return 0; } return f(n - 1) + 1; } f(200);"),
            Value::Num(200.0)
        );
    }
}

#[cfg(test)]
mod builtin_tests {
    use super::*;
    use crate::heap::HostHeap;

    fn run_str(src: &str) -> String {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let prog = interp.load_source(&mut backend, src).unwrap();
        match interp.run_main(&mut backend, prog, u64::MAX).unwrap() {
            VmExit::Done(v) => interp.display(v),
            other => panic!("unexpected exit {other:?}"),
        }
    }

    #[test]
    fn json_serializes_nested_values() {
        assert_eq!(run_str("json(42);"), "42");
        assert_eq!(run_str("json('hi');"), "\"hi\"");
        assert_eq!(
            run_str("json([1, 'a', true, null]);"),
            "[1,\"a\",true,null]"
        );
        assert_eq!(
            run_str("json({ b: 2, a: [1, { c: 'x' }] });"),
            "{\"a\":[1,{\"c\":\"x\"}],\"b\":2}"
        );
    }

    #[test]
    fn keys_lists_properties() {
        assert_eq!(run_str("len(keys({ a: 1, b: 2, c: 3 }));"), "3");
        assert_eq!(run_str("len(keys([1, 2]));"), "0");
    }

    #[test]
    fn string_builtins() {
        assert_eq!(run_str("substr('serverless', 0, 6);"), "server");
        assert_eq!(run_str("substr('abc', 1);"), "bc");
        assert_eq!(run_str("upper('Seuss');"), "SEUSS");
        assert_eq!(run_str("lower('SeUsS');"), "seuss");
        assert_eq!(run_str("str(contains('snapshot', 'shot'));"), "true");
        assert_eq!(run_str("str(contains('snapshot', 'fork'));"), "false");
    }

    #[test]
    fn substr_out_of_range_clamps() {
        assert_eq!(run_str("substr('ab', 5, 9);"), "");
        assert_eq!(run_str("substr('ab', 0, 99);"), "ab");
    }

    #[test]
    fn pipeline_style_composition() {
        // Output of one stage feeds the next as JSON — the composed-
        // function pattern the paper's intro motivates.
        let src = r#"
            function extract(args) { return { user: args.user, n: num(args.n) }; }
            function transform(rec) { rec.n = rec.n * 2; rec.user = upper(rec.user); return rec; }
            json(transform(extract({ user: 'ada', n: '21' })));
        "#;
        assert_eq!(run_str(src), "{\"n\":42,\"user\":\"ADA\"}");
    }
}
