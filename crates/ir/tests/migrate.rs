//! The shared per-entity migration step
//! ([`se_ir::VersionEntry::migrate_entity`]): both engines run this one
//! function over their slice of the store, so these cases reach StateFlow's
//! `Worker::handle_migrate` and StateFun's `PartitionTask::on_upgrade` at
//! once. Programs are hand-compiled — `se-ir` sits below the compiler.

use std::sync::Arc;

use se_ir::{
    Block, BlockId, CompiledClass, CompiledMethod, CompiledProgram, DataflowGraph, InterpBody,
    StateMachine, Terminator, VersionEntry,
};
use se_lang::builder::*;
use se_lang::{EntityRef, EntityState, Stmt, Type, Value, MIGRATION_METHOD};

/// Version 2 of a one-class program: `Acct` gained `shadow` (default 0) and,
/// when `migrate` is given, a `__migrate__` compiled to that single block.
fn v2(migrate: Option<(Vec<Stmt>, Terminator)>) -> VersionEntry {
    let mut class = ClassBuilder::new("Acct")
        .attr_default("id", Type::Str, Value::Str(String::new()))
        .attr_default("balance", Type::Int, Value::Int(0))
        .attr_default("shadow", Type::Int, Value::Int(0))
        .key("id");
    let mut methods = Vec::new();
    if let Some((stmts, terminator)) = migrate {
        // The runner executes the compiled block; the AST method only marks
        // the class as having a migration.
        class = class.migration(vec![]);
        methods.push(CompiledMethod {
            name: MIGRATION_METHOD.into(),
            params: vec![],
            ret: Type::Unit,
            transactional: false,
            blocks: vec![Block {
                id: BlockId(0),
                params: vec![],
                stmts,
                terminator,
            }],
            entry: BlockId(0),
        });
    }
    let machines = methods.iter().map(StateMachine::from_method).collect();
    VersionEntry {
        graph: Arc::new(DataflowGraph {
            program: CompiledProgram {
                classes: vec![CompiledClass {
                    class: class.build(),
                    methods,
                    machines,
                }],
            },
            operators: vec![],
            edges: vec![],
            version: 2,
        }),
        runner: Arc::new(InterpBody),
    }
}

fn acct() -> EntityRef {
    EntityRef::new("Acct", "a")
}

/// A version-1 entity: it predates `shadow`.
fn v1_state() -> EntityState {
    EntityState::from([("id", Value::Str("a".into())), ("balance", Value::Int(5))])
}

fn unit() -> Terminator {
    Terminator::Return(lit(Value::Unit))
}

#[test]
fn backfill_only_class_materializes_new_defaults() {
    let entry = v2(None);
    let (after, ran) = entry
        .migrate_entity(2, "node", acct(), &v1_state())
        .expect("a missing attribute needs the pass");
    assert!(!ran, "no __migrate__ to run");
    assert_eq!(after["shadow"], Value::Int(0));
    assert_eq!(after["balance"], Value::Int(5));
    // Already in the new shape (or of a class the version does not know):
    // no pass, so the engines write nothing.
    assert!(entry.migrate_entity(2, "node", acct(), &after).is_none());
    let stranger = EntityRef::new("Gone", "g");
    assert!(entry
        .migrate_entity(2, "node", stranger, &v1_state())
        .is_none());
}

#[test]
fn migrate_body_sees_the_backfilled_state() {
    let body = vec![attr_assign(
        "shadow",
        add(attr("shadow"), mul(attr("balance"), int(10))),
    )];
    let entry = v2(Some((body, unit())));
    let (after, ran) = entry
        .migrate_entity(2, "node", acct(), &v1_state())
        .expect("__migrate__ always runs");
    assert!(ran);
    // Reads the default the backfill just materialized (0), not a hole.
    assert_eq!(after["shadow"], Value::Int(50));
    // A class with `__migrate__` runs it even on a fully shaped entity.
    let (again, ran) = entry.migrate_entity(2, "node", acct(), &after).unwrap();
    assert!(ran);
    assert_eq!(again["shadow"], Value::Int(100));
}

#[test]
fn erroring_migrate_keeps_the_backfilled_shape() {
    // A half-applied body: writes `shadow`, then fails.
    let body = vec![attr_assign("shadow", int(7))];
    let fails = Terminator::Return(div(int(1), int(0)));
    let (after, ran) = v2(Some((body, fails)))
        .migrate_entity(2, "node", acct(), &v1_state())
        .expect("the backfill still commits");
    assert!(!ran);
    assert_eq!(
        after["shadow"],
        Value::Int(0),
        "the failed body's partial write must not leak; the default must"
    );
    assert_eq!(after["balance"], Value::Int(5));
}

#[test]
fn suspending_migrate_is_skipped_not_routed() {
    // Typecheck forbids remote calls in `__migrate__`; a stale registry
    // entry could still carry one. It must not emit a chain hop into the
    // drained pipeline.
    let body = vec![attr_assign("shadow", int(7))];
    let calls_out = Terminator::RemoteCall {
        target: lit(Value::Ref(EntityRef::new("Acct", "b"))),
        method: "anything".into(),
        args: vec![],
        result_var: None,
        resume: BlockId(0),
    };
    let (after, ran) = v2(Some((body, calls_out)))
        .migrate_entity(2, "node", acct(), &v1_state())
        .expect("the backfill still commits");
    assert!(!ran);
    assert_eq!(after["shadow"], Value::Int(0));
}
