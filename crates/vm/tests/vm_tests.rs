//! Unit tests of the VM backend: end-to-end execution, suspension parity,
//! error parity on hand-built (unchecked) CFGs, and disassembler stability.

use std::collections::HashMap;

use se_ir::{
    drive_chain_with, process_invocation_with, Activation, Block, BlockId, BodyOutcome, BodyRunner,
    CompiledMethod, InterpBody, Invocation, RequestId, StepEffect, Terminator,
};
use se_lang::builder::*;
use se_lang::{EntityRef, EntityState, LangError, Type, Value};
use se_vm::{PoolBuilder, VmProgram};

fn figure1_graph() -> se_ir::DataflowGraph {
    se_compiler::compile(&se_lang::programs::figure1_program()).unwrap()
}

#[test]
fn figure1_buy_item_runs_on_vm() {
    let graph = figure1_graph();
    let vm = VmProgram::compile(&graph.program);
    assert!(vm.compiled_methods() >= 5, "all methods lowered");

    let user = EntityRef::new("User", "u");
    let item = EntityRef::new("Item", "i");
    let mut store = HashMap::new();
    store.insert(
        user,
        graph
            .program
            .class("User")
            .unwrap()
            .class
            .initial_state("u", [("balance".to_string(), Value::Int(100))]),
    );
    store.insert(
        item,
        graph.program.class("Item").unwrap().class.initial_state(
            "i",
            [
                ("price".to_string(), Value::Int(30)),
                ("stock".to_string(), Value::Int(5)),
            ],
        ),
    );
    let store = std::cell::RefCell::new(store);
    let root = Invocation::root(
        RequestId(1),
        user,
        "buy_item",
        vec![Value::Int(2), Value::Ref(item)],
    );
    let resp = drive_chain_with(
        &graph.program,
        &vm,
        root,
        |r| Ok(store.borrow()[r].clone()),
        |r, s| {
            store.borrow_mut().insert(*r, s);
        },
        16,
    );
    assert_eq!(resp.result.unwrap(), Value::Bool(true));
    assert_eq!(store.borrow()[&user]["balance"], Value::Int(40));
    assert_eq!(store.borrow()[&item]["stock"], Value::Int(3));
}

/// Suspension frames must carry byte-identical pruned environments.
#[test]
fn suspension_envs_match_interpreter() {
    let graph = figure1_graph();
    let vm = VmProgram::compile(&graph.program);
    let user = EntityRef::new("User", "u");
    let item = EntityRef::new("Item", "i");
    let init = graph
        .program
        .class("User")
        .unwrap()
        .class
        .initial_state("u", [("balance".to_string(), Value::Int(100))]);

    let root = Invocation::root(
        RequestId(7),
        user,
        "buy_item",
        vec![Value::Int(2), Value::Ref(item)],
    );
    let mut s_interp = init.clone();
    let eff_interp =
        process_invocation_with(&graph.program, &InterpBody, root.clone(), &mut s_interp);
    let mut s_vm = init;
    let eff_vm = process_invocation_with(&graph.program, &vm, root, &mut s_vm);
    assert_eq!(eff_interp, eff_vm);
    assert_eq!(s_interp, s_vm);
    let StepEffect::Emit(inv) = eff_vm else {
        panic!("buy_item must suspend on the remote call")
    };
    assert_eq!(inv.stack.len(), 1, "one suspended frame");
}

/// A hand-built method reading an undefined variable: both backends raise
/// `UndefinedVariable` — even when a later-evaluated subexpression would
/// also fail (error *ordering* parity).
#[test]
fn undefined_variable_error_parity() {
    let method = CompiledMethod {
        name: "bad".into(),
        params: vec![],
        ret: Type::Int,
        transactional: false,
        blocks: vec![Block {
            id: BlockId(0),
            params: vec![],
            stmts: vec![],
            // ghost + (1/0): the undefined read must win over the division.
            terminator: Terminator::Return(add(var("ghost"), div(int(1), int(0)))),
        }],
        entry: BlockId(0),
    };
    let mut pool = PoolBuilder::default();
    let vm_method = se_vm::lower_method(&mut pool, &method).unwrap();
    let class = se_vm::VmClass {
        class: "Ghostly".into(),
        pool: pool.finish(),
        methods: vec![vm_method],
    };

    let mut state = EntityState::new();
    let interp_err = InterpBody
        .run_body(
            "Ghostly".into(),
            &method,
            Activation::Start { args: vec![] },
            &mut state.clone(),
        )
        .unwrap_err();
    let vm_err = se_vm::Vm::new()
        .run(
            &class,
            &class.methods[0],
            Activation::Start { args: vec![] },
            &mut state,
        )
        .unwrap_err();
    assert_eq!(interp_err, LangError::UndefinedVariable("ghost".into()));
    assert_eq!(interp_err, vm_err);
}

/// Nested control flow inside a single block body (legal in hand-built
/// CFGs, even though the splitter always lowers it to terminators).
#[test]
fn nested_control_flow_in_block_body() {
    let method = CompiledMethod {
        name: "nested".into(),
        params: vec![("n".into(), Type::Int)],
        ret: Type::Int,
        transactional: false,
        blocks: vec![Block {
            id: BlockId(0),
            params: vec!["n".into()],
            stmts: vec![
                assign("acc", int(0)),
                for_list(
                    "x",
                    list(vec![int(1), int(2), int(3)]),
                    vec![if_else(
                        gt(var("x"), var("n")),
                        vec![assign("acc", add(var("acc"), var("x")))],
                        vec![],
                    )],
                ),
                assign("i", int(0)),
                while_(
                    lt(var("i"), int(4)),
                    vec![
                        assign("acc", add(var("acc"), int(10))),
                        assign("i", add(var("i"), int(1))),
                    ],
                ),
            ],
            terminator: Terminator::Return(var("acc")),
        }],
        entry: BlockId(0),
    };
    let mut pool = PoolBuilder::default();
    let vm_method = se_vm::lower_method(&mut pool, &method).unwrap();
    let class = se_vm::VmClass {
        class: "Nested".into(),
        pool: pool.finish(),
        methods: vec![vm_method],
    };
    for n in [0i64, 1, 2, 3] {
        let mut st_i = EntityState::new();
        let mut st_v = EntityState::new();
        let interp = InterpBody
            .run_body(
                "Nested".into(),
                &method,
                Activation::Start {
                    args: vec![Value::Int(n)],
                },
                &mut st_i,
            )
            .unwrap();
        let vm = se_vm::Vm::new()
            .run(
                &class,
                &class.methods[0],
                Activation::Start {
                    args: vec![Value::Int(n)],
                },
                &mut st_v,
            )
            .unwrap();
        assert_eq!(interp, vm, "n = {n}");
        let BodyOutcome::Return(v) = vm else {
            panic!("must return")
        };
        // 1+2+3 above n, plus 4 * 10 from the while loop.
        let expected = [1, 2, 3].iter().filter(|x| **x > n).sum::<i64>() + 40;
        assert_eq!(v, Value::Int(expected));
    }
}

/// A runaway loop hits the VM's step budget, like the interpreter's.
#[test]
fn runaway_loop_hits_budget() {
    let method = CompiledMethod {
        name: "spin_forever".into(),
        params: vec![],
        ret: Type::Int,
        transactional: false,
        blocks: vec![Block {
            id: BlockId(0),
            params: vec![],
            stmts: vec![while_(lit(true), vec![assign("x", int(1))])],
            terminator: Terminator::Return(int(0)),
        }],
        entry: BlockId(0),
    };
    let mut pool = PoolBuilder::default();
    let vm_method = se_vm::lower_method(&mut pool, &method).unwrap();
    let class = se_vm::VmClass {
        class: "Spin".into(),
        pool: pool.finish(),
        methods: vec![vm_method],
    };
    let err = se_vm::Vm::with_budget(10_000)
        .run(
            &class,
            &class.methods[0],
            Activation::Start { args: vec![] },
            &mut EntityState::new(),
        )
        .unwrap_err();
    assert_eq!(err, LangError::StepBudgetExhausted);
}

/// A method the lowerer rejects (remote call in a block body) falls back to
/// the interpreter, which reports the violation.
#[test]
fn invalid_split_falls_back_to_interp() {
    let method = CompiledMethod {
        name: "invalid".into(),
        params: vec![("x".into(), Type::entity("Other"))],
        ret: Type::Int,
        transactional: false,
        blocks: vec![Block {
            id: BlockId(0),
            params: vec!["x".into()],
            stmts: vec![expr_stmt(call(var("x"), "m", vec![]))],
            terminator: Terminator::Return(int(0)),
        }],
        entry: BlockId(0),
    };
    let mut pool = PoolBuilder::default();
    assert!(se_vm::lower_method(&mut pool, &method).is_err());

    // Through the VmProgram runner: lookup misses, interp handles it.
    let vm = VmProgram::default();
    let err = vm
        .run_body(
            "Bad".into(),
            &method,
            Activation::Start {
                args: vec![Value::Ref(EntityRef::new("Other", "o"))],
            },
            &mut EntityState::new(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("unexpected remote call"));
}

/// Disassembly is deterministic and structurally complete.
#[test]
fn disasm_is_stable_and_complete() {
    let graph = figure1_graph();
    let vm1 = VmProgram::compile(&graph.program);
    let vm2 = VmProgram::compile(&graph.program);
    let text1: String = vm1.classes().iter().map(se_vm::disasm_class).collect();
    let text2: String = vm2.classes().iter().map(se_vm::disasm_class).collect();
    assert_eq!(text1, text2, "disassembly must be deterministic");
    assert!(text1.contains("class User bytecode:"));
    assert!(text1.contains("method buy_item"));
    assert!(text1.contains("suspend call"));
    assert!(text1.contains("resume b"));
    assert!(text1.contains("self.balance"));
}

/// Golden disassembly of a tiny hand-built method, pinning the text format
/// and the plain one-op-per-operation lowering.
#[test]
fn disasm_golden() {
    let method = CompiledMethod {
        name: "get_plus".into(),
        params: vec![("d".into(), Type::Int)],
        ret: Type::Int,
        transactional: false,
        blocks: vec![Block {
            id: BlockId(0),
            params: vec!["d".into()],
            stmts: vec![],
            terminator: Terminator::Return(add(attr("n"), var("d"))),
        }],
        entry: BlockId(0),
    };
    let mut pool = PoolBuilder::default();
    let vm_method = se_vm::lower_method(&mut pool, &method).unwrap();
    let class = se_vm::VmClass {
        class: "Counter".into(),
        pool: pool.finish(),
        methods: vec![vm_method],
    };
    let text = se_vm::disasm_method(&class, &class.methods[0]);
    let expected = "\
method get_plus (1 blocks, 1 locals, 3 regs, 3 ops)
  locals: r0=d
  b0:
       0  r2 = self.n
       1  r1 = Add r2 r0(d)
       2  return r1
";
    assert_eq!(text, expected);
}

/// Regression (latent Start-activation arity bug): a call with more
/// arguments than *parameters* — but fewer than local registers — used to
/// bind the extras into unrelated local registers. It must raise the
/// protocol's `ArityMismatch` instead.
#[test]
fn start_arity_overflow_raises_protocol_error() {
    let method = CompiledMethod {
        name: "f".into(),
        params: vec![("a".into(), Type::Int)],
        ret: Type::Int,
        transactional: false,
        blocks: vec![Block {
            id: BlockId(0),
            params: vec!["a".into()],
            // `b` is a local register but never a parameter; on the old
            // code the extra argument landed in it and `return b`
            // silently produced the attacker-controlled value.
            stmts: vec![if_else(lit(false), vec![assign("b", int(0))], vec![])],
            terminator: Terminator::Return(var("b")),
        }],
        entry: BlockId(0),
    };
    let mut pool = PoolBuilder::default();
    let vm_method = se_vm::lower_method(&mut pool, &method).unwrap();
    let class = se_vm::VmClass {
        class: "C".into(),
        pool: pool.finish(),
        methods: vec![vm_method],
    };
    let err = se_vm::Vm::new()
        .run(
            &class,
            &class.methods[0],
            Activation::Start {
                args: vec![Value::Int(1), Value::Int(42)],
            },
            &mut EntityState::new(),
        )
        .unwrap_err();
    assert_eq!(
        err,
        LangError::ArityMismatch {
            method: "C.f".into(),
            expected: 1,
            actual: 2,
        }
    );
    // The exact-arity call still runs (and `b` stays undefined, like the
    // interpreter's environment).
    let err = se_vm::Vm::new()
        .run(
            &class,
            &class.methods[0],
            Activation::Start {
                args: vec![Value::Int(1)],
            },
            &mut EntityState::new(),
        )
        .unwrap_err();
    assert_eq!(err, LangError::UndefinedVariable("b".into()));
}

/// Regression (`IterNext` counter wrap): a negative loop counter used to be
/// cast `as usize`, silently terminating the loop; it must raise the
/// interpreter's list-index error instead. Only reachable by hand-assembled
/// code (emitted loops never alias the counter register).
#[test]
fn iter_next_negative_counter_errors() {
    use se_vm::{ConstPool, Op};
    let m = se_vm::VmMethod {
        name: "evil_iter".into(),
        code: vec![
            Op::Const { dst: 0, idx: 0 },
            Op::Const { dst: 1, idx: 1 },
            Op::IterNext {
                list: 0,
                idx: 1,
                dst: 2,
                end: 3,
            },
            Op::Return { src: 1 },
        ],
        block_entry: vec![0],
        entry: BlockId(0),
        locals: vec![],
        local_index: vec![],
        nparams: 0,
        nregs: 3,
    };
    let class = se_vm::VmClass {
        class: "Evil".into(),
        pool: ConstPool {
            values: vec![Value::List(vec![Value::Int(7)]), Value::Int(-1)],
            names: vec![],
        },
        methods: vec![m],
    };
    let err = se_vm::Vm::new()
        .run(
            &class,
            &class.methods[0],
            Activation::Start { args: vec![] },
            &mut EntityState::new(),
        )
        .unwrap_err();
    assert_eq!(
        err,
        LangError::runtime("list index -1 out of range (len 1)".to_string())
    );
}
