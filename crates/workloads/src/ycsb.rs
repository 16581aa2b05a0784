//! YCSB and YCSB+T workloads over stateful entities.
//!
//! "We are using workloads A and B from the original YCSB benchmark. A is
//! update-heavy — 50% reads 50% updates — and B is read-heavy — 95% reads
//! 5% updates. In addition, we use the transactional workload T from YCSB+T,
//! which atomically transfers an amount from one entity's bank account to
//! another (2 reads and 2 writes). For the throughput test, we defined a
//! mixed workload M (45% reads 45% updates 10% transfers)." (§4)
//!
//! Records are **entities** compiled through the full pipeline — YCSB here
//! measures the system the paper builds, not a raw key-value store (the
//! paper's "Baseline" paragraph makes exactly this point).

use rand::Rng;

use se_lang::builder::*;
use se_lang::{Program, Type, Value};

use crate::dist::KeyChooser;

/// The YCSB+T account entity: a record with a payload (for reads/updates)
/// and a balance (for transfers).
pub fn ycsb_program() -> Program {
    let account = ClassBuilder::new("Account")
        .attr_default("account_id", Type::Str, Value::Str(String::new()))
        .attr_default("balance", Type::Int, Value::Int(0))
        .attr_default("data", Type::Bytes, Value::Bytes(Vec::new()))
        .key("account_id")
        // read(): return the record payload.
        .method(
            MethodBuilder::new("read")
                .returns(Type::Bytes)
                .body(vec![ret(attr("data"))]),
        )
        // update(v): overwrite the record payload.
        .method(
            MethodBuilder::new("update")
                .param("value", Type::Bytes)
                .returns(Type::Bool)
                .body(vec![attr_assign("data", var("value")), ret(lit(true))]),
        )
        .method(
            MethodBuilder::new("balance")
                .returns(Type::Int)
                .body(vec![ret(attr("balance"))]),
        )
        .method(
            MethodBuilder::new("deposit")
                .param("amount", Type::Int)
                .returns(Type::Int)
                .body(vec![
                    attr_add("balance", var("amount")),
                    ret(attr("balance")),
                ]),
        )
        // spin(iters): a compute-bound body — `iters` arithmetic loop turns,
        // one attribute read, no writes, no remote calls. Workload C uses it
        // for scaling benches where per-event CPU (not state movement or
        // coordination) dominates, the regime where the intra-partition exec
        // pool should show its parallel speedup.
        .method(
            MethodBuilder::new("spin")
                .param("iters", Type::Int)
                .returns(Type::Int)
                .body(vec![
                    assign_ty("acc", Type::Int, attr("balance")),
                    assign_ty("i", Type::Int, lit(0)),
                    while_(
                        lt(var("i"), var("iters")),
                        vec![
                            assign(
                                "acc",
                                modulo(add(mul(var("acc"), lit(31)), var("i")), lit(1000003)),
                            ),
                            assign("i", add(var("i"), lit(1))),
                        ],
                    ),
                    ret(var("acc")),
                ]),
        )
        // transfer: the YCSB+T transaction — 2 reads + 2 writes across two
        // accounts, atomically.
        .method(
            MethodBuilder::new("transfer")
                .param("other", Type::entity("Account"))
                .param("amount", Type::Int)
                .returns(Type::Bool)
                .transactional()
                .body(vec![
                    assign_ty("b", Type::Int, attr("balance")),
                    if_(lt(var("b"), var("amount")), vec![ret(lit(false))]),
                    attr_assign("balance", sub(var("b"), var("amount"))),
                    expr_stmt(call(var("other"), "deposit", vec![var("amount")])),
                    ret(lit(true)),
                ]),
        )
        .build();
    Program::new(vec![account])
}

/// Version 2 of the YCSB+T account entity, for live-upgrade scenarios: every
/// v1 method is byte-identical, plus a new `audit_epoch` attribute whose `__migrate__` body bumps
/// it once per applied upgrade and an `audits` probe reading it back.
/// Workload semantics are untouched, so a run that upgrades mid-stream must
/// still replay cleanly through the v1 Local oracle.
pub fn ycsb_program_v2() -> Program {
    let Program { mut classes, .. } = ycsb_program();
    let account = classes.remove(0);
    let account = ClassBuilder::from_class(account)
        .attr_default("audit_epoch", Type::Int, Value::Int(0))
        .method(
            MethodBuilder::new("audits")
                .returns(Type::Int)
                .body(vec![ret(attr("audit_epoch"))]),
        )
        .migration(vec![attr_assign(
            "audit_epoch",
            add(attr("audit_epoch"), int(1)),
        )])
        .build();
    Program::new(vec![account])
}

/// Key name of record `i`.
pub fn key_name(i: usize) -> String {
    format!("user{i}")
}

/// Operation mix of a workload, in percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Short name ("A", "B", "T", "M", "C").
    pub name: &'static str,
    /// Percent reads.
    pub read_pct: u8,
    /// Percent updates.
    pub update_pct: u8,
    /// Percent transfers (YCSB+T transactions).
    pub transfer_pct: u8,
    /// Percent compute-bound spins (workload C; not part of the paper's
    /// mixes, used by the scaling bench).
    pub spin_pct: u8,
}

impl WorkloadSpec {
    /// YCSB A: update-heavy (50/50).
    pub const A: WorkloadSpec = WorkloadSpec {
        name: "A",
        read_pct: 50,
        update_pct: 50,
        transfer_pct: 0,
        spin_pct: 0,
    };
    /// YCSB B: read-heavy (95/5).
    pub const B: WorkloadSpec = WorkloadSpec {
        name: "B",
        read_pct: 95,
        update_pct: 5,
        transfer_pct: 0,
        spin_pct: 0,
    };
    /// YCSB+T T: transfers only.
    pub const T: WorkloadSpec = WorkloadSpec {
        name: "T",
        read_pct: 0,
        update_pct: 0,
        transfer_pct: 100,
        spin_pct: 0,
    };
    /// The paper's mixed workload M (45/45/10).
    pub const M: WorkloadSpec = WorkloadSpec {
        name: "M",
        read_pct: 45,
        update_pct: 45,
        transfer_pct: 10,
        spin_pct: 0,
    };
    /// C: compute-bound spins only — single-entity, read-only, loop-heavy
    /// bodies. With uniform keys it is conflict-free, the regime where
    /// scaling by partition count is purest.
    pub const C: WorkloadSpec = WorkloadSpec {
        name: "C",
        read_pct: 0,
        update_pct: 0,
        transfer_pct: 0,
        spin_pct: 100,
    };

    /// Whether the mix contains multi-entity transactions.
    pub fn is_transactional(&self) -> bool {
        self.transfer_pct > 0
    }
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// Read record `key`'s payload.
    Read {
        /// Record index.
        key: usize,
    },
    /// Overwrite record `key`'s payload.
    Update {
        /// Record index.
        key: usize,
        /// New payload.
        value: Vec<u8>,
    },
    /// Transfer `amount` from one account to another.
    Transfer {
        /// Source record index.
        from: usize,
        /// Destination record index (≠ `from`).
        to: usize,
        /// Amount.
        amount: i64,
    },
    /// Run record `key`'s compute-bound spin loop for `iters` turns.
    Spin {
        /// Record index.
        key: usize,
        /// Loop turns.
        iters: i64,
    },
}

impl Operation {
    /// The entity method invocation this operation maps to:
    /// `(target key index, method name, args)`.
    pub fn to_invocation(&self) -> (usize, &'static str, Vec<Value>) {
        match self {
            Operation::Read { key } => (*key, "read", vec![]),
            Operation::Update { key, value } => (*key, "update", vec![Value::Bytes(value.clone())]),
            Operation::Transfer { from, to, amount } => (
                *from,
                "transfer",
                vec![
                    Value::Ref(se_lang::EntityRef::new("Account", key_name(*to))),
                    Value::Int(*amount),
                ],
            ),
            Operation::Spin { key, iters } => (*key, "spin", vec![Value::Int(*iters)]),
        }
    }
}

/// Generates operations of a workload mix over a key chooser.
pub struct OpGenerator {
    spec: WorkloadSpec,
    chooser: Box<dyn KeyChooser>,
    value_size: usize,
    spin_iters: i64,
}

impl OpGenerator {
    /// A generator for `spec` drawing keys from `chooser`; updates write
    /// payloads of `value_size` bytes (YCSB default: 1 KiB rows).
    pub fn new(spec: WorkloadSpec, chooser: Box<dyn KeyChooser>, value_size: usize) -> Self {
        Self {
            spec,
            chooser,
            value_size,
            spin_iters: 256,
        }
    }

    /// Sets the loop-turn count of generated spins (default 256).
    pub fn with_spin_iters(mut self, iters: i64) -> Self {
        self.spin_iters = iters;
        self
    }

    /// Draws the next operation.
    pub fn next_op(&mut self, rng: &mut dyn rand::RngCore) -> Operation {
        let roll = rng.gen_range(0..100u8);
        if roll < self.spec.read_pct {
            Operation::Read {
                key: self.chooser.next_key(rng),
            }
        } else if roll < self.spec.read_pct + self.spec.update_pct {
            let fill = rng.gen::<u8>();
            Operation::Update {
                key: self.chooser.next_key(rng),
                value: vec![fill; self.value_size],
            }
        } else if roll < self.spec.read_pct + self.spec.update_pct + self.spec.transfer_pct {
            let from = self.chooser.next_key(rng);
            let mut to = self.chooser.next_key(rng);
            if to == from {
                to = (to + 1) % self.chooser.key_count().max(2);
            }
            Operation::Transfer {
                from,
                to,
                amount: rng.gen_range(1..10),
            }
        } else {
            Operation::Spin {
                key: self.chooser.next_key(rng),
                iters: self.spin_iters,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Uniform};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn program_typechecks_and_compiles() {
        let p = ycsb_program();
        se_lang::typecheck::check_program(&p).unwrap();
        let g = se_compiler_compile(&p);
        // transfer splits at its one remote call.
        assert_eq!(g, 1);
    }

    // Avoid a dev-dependency cycle: call through a tiny shim.
    fn se_compiler_compile(p: &Program) -> usize {
        // The workloads crate depends on se-core which re-exports compile.
        let graph = se_core::compile(p).unwrap();
        graph
            .program
            .method_or_err("Account", "transfer")
            .unwrap()
            .suspension_points()
    }

    #[test]
    fn mixes_match_spec() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gen = OpGenerator::new(WorkloadSpec::M, Distribution::Uniform.chooser(100), 64);
        let (mut r, mut u, mut t) = (0, 0, 0);
        let n = 20_000;
        for _ in 0..n {
            match gen.next_op(&mut rng) {
                Operation::Read { .. } => r += 1,
                Operation::Update { .. } => u += 1,
                Operation::Transfer { .. } => t += 1,
                Operation::Spin { .. } => panic!("M generates no spins"),
            }
        }
        let pct = |c: i32| c as f64 / n as f64 * 100.0;
        assert!((pct(r) - 45.0).abs() < 2.0, "reads {}%", pct(r));
        assert!((pct(u) - 45.0).abs() < 2.0, "updates {}%", pct(u));
        assert!((pct(t) - 10.0).abs() < 2.0, "transfers {}%", pct(t));
    }

    #[test]
    fn transfer_never_self_targets() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut gen = OpGenerator::new(WorkloadSpec::T, Box::new(Uniform::new(4)), 64);
        for _ in 0..5_000 {
            if let Operation::Transfer { from, to, .. } = gen.next_op(&mut rng) {
                assert_ne!(from, to);
            }
        }
    }

    #[test]
    fn update_respects_value_size() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut gen = OpGenerator::new(WorkloadSpec::A, Box::new(Uniform::new(10)), 1024);
        loop {
            if let Operation::Update { value, .. } = gen.next_op(&mut rng) {
                assert_eq!(value.len(), 1024);
                break;
            }
        }
    }

    #[test]
    fn spec_constants() {
        assert!(!WorkloadSpec::A.is_transactional());
        assert!(WorkloadSpec::T.is_transactional());
        assert!(WorkloadSpec::M.is_transactional());
        assert!(!WorkloadSpec::C.is_transactional());
        for spec in [
            WorkloadSpec::A,
            WorkloadSpec::B,
            WorkloadSpec::T,
            WorkloadSpec::M,
            WorkloadSpec::C,
        ] {
            assert_eq!(
                spec.read_pct + spec.update_pct + spec.transfer_pct + spec.spin_pct,
                100,
                "workload {} mix must sum to 100%",
                spec.name
            );
        }
    }

    #[test]
    fn workload_c_generates_only_spins_with_requested_iters() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut gen =
            OpGenerator::new(WorkloadSpec::C, Box::new(Uniform::new(50)), 64).with_spin_iters(512);
        for _ in 0..1_000 {
            match gen.next_op(&mut rng) {
                Operation::Spin { key, iters } => {
                    assert!(key < 50);
                    assert_eq!(iters, 512);
                }
                other => panic!("workload C generated {other:?}"),
            }
        }
    }

    /// The spin body must be single-entity (no suspension points: it never
    /// leaves its partition, which is what makes workload C conflict-free
    /// under uniform keys) and deterministic in its result.
    #[test]
    fn spin_method_is_local_and_deterministic() {
        let p = ycsb_program();
        se_lang::typecheck::check_program(&p).unwrap();
        let graph = se_core::compile(&p).unwrap();
        assert_eq!(
            graph
                .program
                .method_or_err("Account", "spin")
                .unwrap()
                .suspension_points(),
            0,
            "spin must not suspend"
        );
        let rt = se_core::deploy(&p, se_core::RuntimeChoice::Local).unwrap();
        let acct = rt
            .create("Account", "a0", vec![("balance".into(), Value::Int(7))])
            .unwrap();
        let one = rt.call(acct, "spin", vec![Value::Int(300)]).unwrap();
        let two = rt.call(acct, "spin", vec![Value::Int(300)]).unwrap();
        assert_eq!(one, two, "spin is read-only and deterministic");
        assert!(one.as_int().unwrap() >= 0);
    }
}
