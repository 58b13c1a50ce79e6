//! Property tests on the interpreter (driven by `seuss-check`):
//!
//! 1. generated arithmetic expression trees evaluate to the same value a
//!    host-side reference evaluator computes;
//! 2. the lexer/parser never panic on arbitrary input;
//! 3. fuel-sliced execution produces the same result as one-shot
//!    execution (resumability is semantics-preserving).

use seuss_check::{check_with, ensure, ensure_eq, gen::Gen, Config, Source};

use miniscript::{HostHeap, Interpreter, RuntimeProfile, Value, VmExit};

/// Host-side reference AST mirroring the generated expression.
#[derive(Clone, Debug, PartialEq)]
enum E {
    Num(i32),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
}

impl E {
    fn eval(&self) -> f64 {
        match self {
            E::Num(n) => *n as f64,
            E::Add(a, b) => a.eval() + b.eval(),
            E::Sub(a, b) => a.eval() - b.eval(),
            E::Mul(a, b) => a.eval() * b.eval(),
        }
    }

    fn src(&self) -> String {
        match self {
            E::Num(n) => {
                if *n < 0 {
                    format!("(0 - {})", -(*n as i64))
                } else {
                    n.to_string()
                }
            }
            E::Add(a, b) => format!("({} + {})", a.src(), b.src()),
            E::Sub(a, b) => format!("({} - {})", a.src(), b.src()),
            E::Mul(a, b) => format!("({} * {})", a.src(), b.src()),
        }
    }
}

/// Bounded-depth recursive expression generator. A zero draw makes a
/// leaf and numbers draw their distance from zero, so failing
/// expressions minimize toward a single small literal.
struct ExprGen {
    max_depth: u32,
}

impl ExprGen {
    fn gen_at(&self, depth: u32, src: &mut Source) -> E {
        // Bias toward leaves as depth grows so trees stay small.
        if depth >= self.max_depth || src.draw(2) == 0 {
            return E::Num(seuss_check::range(-100, 99).generate(src));
        }
        let a = Box::new(self.gen_at(depth + 1, src));
        let b = Box::new(self.gen_at(depth + 1, src));
        match src.draw(2) {
            0 => E::Add(a, b),
            1 => E::Sub(a, b),
            _ => E::Mul(a, b),
        }
    }
}

impl Gen for ExprGen {
    type Value = E;

    fn generate(&self, src: &mut Source) -> E {
        self.gen_at(0, src)
    }
}

fn run_source(src: &str) -> Value {
    let mut backend = HostHeap::with_capacity(8 << 20);
    let mut interp = Interpreter::new(RuntimeProfile::tiny());
    let prog = interp.load_source(&mut backend, src).expect("compile");
    match interp.run_main(&mut backend, prog, u64::MAX).expect("run") {
        VmExit::Done(v) => v,
        other => panic!("unexpected exit {other:?}"),
    }
}

#[test]
fn arithmetic_matches_reference() {
    check_with(
        Config::with_cases(128),
        "interp_arith_reference",
        &ExprGen { max_depth: 5 },
        |e| {
            let src = format!("{};", e.src());
            match run_source(&src) {
                Value::Num(n) => ensure_eq!(n, e.eval()),
                other => return Err(format!("non-numeric result {other:?}")),
            }
            Ok(())
        },
    );
}

#[test]
fn lexer_and_parser_never_panic() {
    // Arbitrary junk (any non-control unicode, like proptest's `\PC`) may
    // fail to compile, but must fail cleanly.
    let junk = seuss_check::vecs(seuss_check::range(0x20u32, 0x2_FFFF), 0, 120).map(|points| {
        points
            .into_iter()
            .filter_map(char::from_u32)
            .filter(|c| !c.is_control())
            .collect::<String>()
    });
    check_with(
        Config::with_cases(128),
        "interp_lexer_total",
        &junk,
        |src| {
            let _ = miniscript::compile(src);
            Ok(())
        },
    );
}

#[test]
fn structured_garbage_never_panics() {
    let tokens = seuss_check::vecs(
        seuss_check::choice(vec![
            "let", "function", "return", "if", "else", "while", "(", ")", "{", "}", "+", "-", "*",
            "/", "==", "x", "y", "1", "2.5", "'s'", ";", ",", "[", "]", ".", "=",
        ]),
        0,
        40,
    );
    check_with(
        Config::with_cases(128),
        "interp_parser_total",
        &tokens,
        |tokens| {
            let src = tokens.join(" ");
            let _ = miniscript::compile(&src);
            Ok(())
        },
    );
}

#[test]
fn fuel_slicing_preserves_semantics() {
    let cases = (seuss_check::range(1u32, 59), seuss_check::range(7u64, 199));
    check_with(
        Config::with_cases(128),
        "interp_fuel_slicing",
        &cases,
        |&(n, fuel)| {
            let src =
                format!("let s = 0; let i = 0; while (i < {n}) {{ s = s + i * i; i = i + 1; }} s;");
            let oneshot = run_source(&src);

            let mut backend = HostHeap::with_capacity(8 << 20);
            let mut interp = Interpreter::new(RuntimeProfile::tiny());
            let prog = interp.load_source(&mut backend, &src).expect("compile");
            let mut exit = interp.run_main(&mut backend, prog, fuel).expect("run");
            let mut rounds = 0u32;
            while exit == VmExit::OutOfFuel {
                exit = interp
                    .resume(&mut backend, Value::Null, fuel)
                    .expect("resume");
                rounds += 1;
                ensure!(rounds < 100_000, "diverged");
            }
            match exit {
                VmExit::Done(v) => ensure_eq!(v, oneshot),
                other => return Err(format!("unexpected exit {other:?}")),
            }
            Ok(())
        },
    );
}
