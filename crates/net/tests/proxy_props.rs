//! Property tests on the proxy's port table (driven by `seuss-check`):
//! port uniqueness under arbitrary register/unregister interleavings.

use seuss_check::{check_with, ensure, ensure_eq, gen::Gen, Config};
use seuss_net::NetProxy;
use std::collections::HashMap;

#[derive(Clone, Debug, PartialEq)]
enum Op {
    Register(u32),
    Unregister(u32),
}

fn ops(max_len: usize) -> impl Gen<Value = Vec<Op>> {
    let register = seuss_check::range(0u32, 199).map(Op::Register);
    let unregister = seuss_check::range(0u32, 199).map(Op::Unregister);
    seuss_check::vecs(
        seuss_check::one_of(vec![register.boxed(), unregister.boxed()]),
        1,
        max_len,
    )
}

#[test]
fn port_table_matches_a_reference_model() {
    check_with(
        Config::with_cases(64),
        "proxy_reference_model",
        &ops(200),
        |ops| {
            let mut proxy = NetProxy::new();
            let mut model: HashMap<u32, u16> = HashMap::new();
            for op in ops {
                match *op {
                    Op::Register(uc) => {
                        if model.contains_key(&uc) {
                            continue; // model one registration per UC
                        }
                        let port = proxy.register(uc).expect("space");
                        // Port must be unique among live mappings.
                        ensure!(
                            !model.values().any(|&p| p == port),
                            "port {port} reused while live"
                        );
                        model.insert(uc, port);
                    }
                    Op::Unregister(uc) => {
                        let had = model.remove(&uc).is_some();
                        ensure_eq!(proxy.unregister(uc), had);
                    }
                }
                ensure_eq!(proxy.active(), model.len());
            }
            Ok(())
        },
    );
}
