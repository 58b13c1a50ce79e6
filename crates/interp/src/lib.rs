//! `miniscript` — a small JavaScript-like interpreter whose memory lives
//! in a pluggable backing store.
//!
//! SEUSS runs real language runtimes (Node.js, Python) inside unikernel
//! contexts; what matters to the system is *where the runtime's memory
//! traffic lands*: importing and compiling a function dirties pages, lazy
//! runtime initialization dirties pages on first use, and anticipatory
//! optimization works precisely because a dummy pre-execution moves those
//! first-use pages into the shared base snapshot (§3, §7).
//!
//! `miniscript` reproduces that mechanically. It is a complete pipeline —
//! lexer → Pratt parser → bytecode compiler → stack VM — whose
//! allocations (string interning, object backing stores, compile arenas,
//! lazily-initialized runtime subsystems) are committed through a
//! [`HeapBackend`] trait. The unikernel crate implements `HeapBackend` on
//! top of a UC's address space, so running a script genuinely writes
//! guest pages and the paging crate's dirty tracking sees real traffic.
//!
//! The language covers what the paper's workloads need: numbers, strings,
//! booleans, `let`/assignment, arithmetic/comparison/logic, `if`/`else`,
//! `while`/`for`, function declarations and calls (with recursion),
//! arrays, objects, and host builtins including `spin(cycles)` for
//! CPU-bound work and `http_get(url)` which *suspends the VM* so the
//! discrete-event simulation can model blocking external IO.
//!
//! # Examples
//!
//! ```
//! use miniscript::{HostHeap, Interpreter, RuntimeProfile, Value, VmExit};
//!
//! let mut heap = HostHeap::with_capacity(8 << 20);
//! let mut interp = Interpreter::new(RuntimeProfile::tiny());
//! let prog = interp
//!     .load_source(&mut heap, "function add(a, b) { return a + b; } add(2, 40);")
//!     .unwrap();
//! match interp.run_main(&mut heap, prog, u64::MAX).unwrap() {
//!     VmExit::Done(Value::Num(n)) => assert_eq!(n, 42.0),
//!     other => panic!("unexpected exit: {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod ast;
mod bytecode;
mod compile;
mod heap;
mod lexer;
mod parser;
mod profile;
mod value;
mod vm;

pub use compile::compile;
pub use heap::{HeapBackend, HeapError, HostHeap};
pub use profile::RuntimeProfile;
pub use value::Value;
pub use vm::{HostCall, Interpreter, LoadError, ProgId, RuntimeError, VmExit};
