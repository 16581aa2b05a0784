//! Interp-vs-VM differential suite.
//!
//! Random well-typed programs (strategies from `se_lang::arb`) are compiled
//! through the full pipeline, then every invocation chain is executed under
//! the tree-walking interpreter and the bytecode VM **in lockstep**: after
//! every hop the two backends must have produced the identical
//! [`StepEffect`] (same emitted invocation — frames, pruned environments,
//! arguments — or same response, including errors) and identical entity
//! states across the whole store.

use std::collections::HashMap;

use proptest::prelude::*;
use se_ir::{
    process_invocation_with, CompiledProgram, InterpBody, Invocation, RequestId, Response,
    StepEffect,
};
use se_lang::{arb, EntityRef, EntityState, Value};
use se_vm::VmProgram;

/// Drives one invocation chain under both backends, asserting identical
/// effects and stores after every hop. Returns the final response and the
/// interp-side store.
fn run_lockstep(
    program: &CompiledProgram,
    vm: &VmProgram,
    root: Invocation,
    init: &HashMap<EntityRef, EntityState>,
) -> (Response, HashMap<EntityRef, EntityState>) {
    let mut store_i = init.clone();
    let mut store_v = init.clone();
    let mut cur_i = root.clone();
    let mut cur_v = root;
    for hop in 0..8192 {
        let target = cur_i.target;
        let mut si = store_i.get(&target).cloned().expect("interp entity exists");
        let eff_i = process_invocation_with(program, &InterpBody, cur_i, &mut si);
        store_i.insert(target, si);

        let mut sv = store_v
            .get(&cur_v.target)
            .cloned()
            .expect("vm entity exists");
        let eff_v = process_invocation_with(program, vm, cur_v, &mut sv);
        store_v.insert(target, sv);

        assert_eq!(eff_i, eff_v, "hop {hop}: step effects diverged");
        for (r, state) in &store_i {
            assert_eq!(
                Some(state),
                store_v.get(r),
                "hop {hop}: state of {r} diverged"
            );
        }
        match eff_i {
            StepEffect::Respond(resp) => return (resp, store_i),
            StepEffect::Emit(next) => {
                cur_i = next;
                let StepEffect::Emit(next_v) = eff_v else {
                    unreachable!("effects compared equal")
                };
                cur_v = next_v;
            }
        }
    }
    panic!("invocation chain exceeded 8192 hops");
}

fn initial_store(
    program: &CompiledProgram,
) -> (EntityRef, EntityRef, HashMap<EntityRef, EntityState>) {
    let caller = EntityRef::new("ArbCaller", "a1");
    let callee = EntityRef::new("ArbCallee", "b1");
    let mut init = HashMap::new();
    init.insert(
        caller,
        program
            .class("ArbCaller")
            .unwrap()
            .class
            .initial_state("a1", []),
    );
    init.insert(
        callee,
        program
            .class("ArbCallee")
            .unwrap()
            .class
            .initial_state("b1", []),
    );
    (caller, callee, init)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Random program, chained invocation (`go` hops to the callee and
    /// back, possibly from inside branches and loops), then two direct
    /// callee invocations against the mutated store.
    #[test]
    fn interp_and_vm_agree(
        (program, _, _) in arb::arb_two_class_program(),
        n in -50i64..50,
        x in -50i64..50,
        y in -50i64..50,
    ) {
        let graph = se_compiler::compile(&program)
            .unwrap_or_else(|e| panic!("generated program must compile, got {e:?}"));
        let vm = VmProgram::compile(&graph.program);
        prop_assert_eq!(
            vm.compiled_methods(),
            3,
            "all split methods must lower to bytecode"
        );

        let (caller, callee, init) = initial_store(&graph.program);
        let root = Invocation::root(
            RequestId(1),
            caller,
            "go",
            vec![Value::Int(n), Value::Ref(callee)],
        );
        let (_, after) = run_lockstep(&graph.program, &vm, root, &init);

        let bump = Invocation::root(
            RequestId(2),
            callee,
            "bump",
            vec![Value::Int(x), Value::Int(y)],
        );
        let (_, after) = run_lockstep(&graph.program, &vm, bump, &after);

        let poke = Invocation::root(RequestId(3), callee, "poke", vec![Value::Int(x)]);
        run_lockstep(&graph.program, &vm, poke, &after);
    }

    /// Error paths diverge neither: wrong arity and unknown methods produce
    /// the same failed response under both backends.
    #[test]
    fn error_responses_agree((program, _, _) in arb::arb_two_class_program(), n in -50i64..50) {
        let graph = se_compiler::compile(&program)
            .unwrap_or_else(|e| panic!("generated program must compile, got {e:?}"));
        let vm = VmProgram::compile(&graph.program);
        let (caller, callee, init) = initial_store(&graph.program);
        for root in [
            Invocation::root(RequestId(9), caller, "go", vec![Value::Int(n)]),
            Invocation::root(RequestId(10), callee, "bump", vec![]),
            Invocation::root(RequestId(11), callee, "nope", vec![]),
        ] {
            run_lockstep(&graph.program, &vm, root, &init);
        }
    }
}
