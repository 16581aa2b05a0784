//! Property-test strategies for *well-typed* random entity programs
//! (enabled by the `arb` cargo feature).
//!
//! The generated programs pass the full compiler pipeline (type check,
//! normalization, splitting) by construction: statements draw only from a
//! statically pre-declared scope of `int` locals (defined by a prelude at
//! the top of every method), a list-of-int local `xs` that never shrinks,
//! and one `int` attribute per class. Loops are generated as bounded
//! counter patterns with per-nesting-level counter names, so every program
//! terminates.
//!
//! Primary consumer: the interp-vs-VM differential suite in
//! `crates/vm/tests/differential.rs`, which runs each generated program
//! under both execution backends in lockstep and asserts byte-identical
//! behavior. The shapes are deliberately biased toward what makes the two
//! backends most likely to diverge: deep expressions, short-circuit
//! operators, nested control flow, list indexing, division errors, and
//! remote calls inside branches and loops (suspension points).

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use proptest::sample::select;

use crate::builder::*;
use crate::{Expr, Method, Program, Stmt, Type, Value};

/// The pre-declared int-typed scratch variables every generated method
/// defines in its prelude.
pub const SCRATCH_VARS: [&str; 4] = ["v0", "v1", "v2", "v3"];

/// Variable scope threaded through the statement strategies.
#[derive(Debug, Clone)]
pub struct ScopeCtx {
    /// Int-typed variables expressions may read (always defined).
    pub reads: Vec<&'static str>,
    /// Int-typed variables statements may overwrite.
    pub writes: Vec<&'static str>,
    /// The class's int attribute (readable and writable).
    pub attr: &'static str,
    /// Loop-nesting level; picks fresh counter / loop-variable names so a
    /// nested loop can never clobber an enclosing loop's counter.
    pub level: usize,
}

/// Fixed per-nesting-level loop counter names (`while` patterns).
const COUNTERS: [&str; 8] = ["i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7"];
/// Fixed per-nesting-level loop variable names (`for` patterns).
const LOOP_VARS: [&str; 8] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];

impl ScopeCtx {
    fn counter(&self) -> &'static str {
        COUNTERS[self.level]
    }

    fn loop_var(&self) -> &'static str {
        LOOP_VARS[self.level]
    }

    fn deeper(&self, extra_read: &'static str) -> ScopeCtx {
        let mut c = self.clone();
        c.level += 1;
        assert!(c.level < COUNTERS.len(), "loop nesting deeper than planned");
        // The counter / loop variable is readable inside the body but never
        // writable — termination depends on it.
        c.reads.push(extra_read);
        c
    }
}

/// Strategy for *constant-foldable* int expressions: trees built from
/// literals only — no variable, attribute or list reads — so a folding
/// lowering pass can evaluate them entirely at compile time.
///
/// Raw division/modulo are included deliberately: a literal denominator may
/// be zero, in which case the fold must *fail* and leave the expression for
/// runtime, where both backends raise the identical `DivisionByZero` in the
/// identical order. Mixing these subtrees into every generated body keeps
/// the differential suite honest about fold-vs-run equivalence.
pub fn arb_foldable_int_expr() -> BoxedStrategy<Expr> {
    let leaf = (-20i64..100).prop_map(int).boxed();
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..5).prop_map(|(a, b, k)| match k {
                0 => add(a, b),
                1 => sub(a, b),
                2 => mul(a, b),
                3 => min2(a, b),
                _ => max2(a, b),
            }),
            inner.clone().prop_map(abs),
            inner.clone().prop_map(neg),
            // Literal div/mod: folds when the denominator is nonzero,
            // otherwise must defer to runtime for the error.
            (inner.clone(), inner.clone()).prop_map(|(a, b)| div(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| modulo(a, b)),
        ]
    })
    .boxed()
}

/// Strategy for int-typed expressions over the context's scope.
///
/// Includes guarded division (denominator `abs(e) + 1`, never zero), *raw*
/// division/modulo (runtime `DivisionByZero` coverage — both backends must
/// produce the identical error), list indexing via `xs[e % len(xs)]`
/// (in range by construction, since `xs` never shrinks below 2 elements),
/// and whole constant-foldable subtrees ([`arb_foldable_int_expr`]).
pub fn arb_int_expr(ctx: &ScopeCtx) -> BoxedStrategy<Expr> {
    let reads = ctx.reads.clone();
    let attr_name = ctx.attr;
    let leaf = prop_oneof![
        (-20i64..100).prop_map(int),
        select(reads).prop_map(var),
        Just(attr(attr_name)),
        Just(len(var("xs"))),
        arb_foldable_int_expr(),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..5).prop_map(|(a, b, k)| match k {
                0 => add(a, b),
                1 => sub(a, b),
                2 => mul(a, b),
                3 => min2(a, b),
                _ => max2(a, b),
            }),
            inner.clone().prop_map(abs),
            inner.clone().prop_map(neg),
            // Guarded division: abs(b) + 1 is never 0 (wrapping arithmetic
            // cannot produce -1 from abs).
            (inner.clone(), inner.clone()).prop_map(|(a, b)| div(a, add(abs(b), int(1)))),
            // Raw division / modulo: DivisionByZero error coverage.
            (inner.clone(), inner.clone()).prop_map(|(a, b)| div(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| modulo(a, b)),
            // In-range list indexing: |e % len| < len, len >= 2.
            inner
                .clone()
                .prop_map(|e| index(var("xs"), modulo(e, len(var("xs"))))),
        ]
    })
}

/// Strategy for bool-typed expressions: comparisons of int expressions,
/// short-circuit connectives, negation and list membership.
pub fn arb_bool_expr(ctx: &ScopeCtx) -> BoxedStrategy<Expr> {
    let ints = arb_int_expr(ctx);
    let cmp = (ints.clone(), ints.clone(), 0usize..6).prop_map(|(a, b, k)| match k {
        0 => lt(a, b),
        1 => le(a, b),
        2 => gt(a, b),
        3 => ge(a, b),
        4 => eq(a, b),
        _ => ne(a, b),
    });
    let member = ints.clone().prop_map(|e| contains(var("xs"), e));
    let leaf = prop_oneof![cmp, member];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| or(a, b)),
            inner.clone().prop_map(not),
        ]
    })
}

/// Strategy for a chunk of statements (possibly several, e.g. a counter
/// initialization plus its `while` loop). `depth` bounds control-flow
/// nesting.
pub fn arb_stmt_chunk(ctx: &ScopeCtx, depth: u32) -> BoxedStrategy<Vec<Stmt>> {
    let ints = arb_int_expr(ctx);
    let writes = ctx.writes.clone();
    let attr_name = ctx.attr;
    let base = prop_oneof![
        (select(writes), ints.clone()).prop_map(|(n, e)| vec![assign(n, e)]),
        ints.clone()
            .prop_map(move |e| vec![attr_assign(attr_name, e)]),
        ints.clone()
            .prop_map(|e| vec![assign("xs", append(var("xs"), e))]),
        // Attr-heavy read-modify-write: `self.a = <op>(self.a, e)` — the
        // hot shape of entity methods (`self.balance - amount`), so the
        // differential suite exercises attribute reads and writes around
        // every arithmetic operator.
        (ints.clone(), 0usize..3).prop_map(move |(e, k)| {
            let a = attr(attr_name);
            let rmw = match k {
                0 => add(a, e),
                1 => sub(a, e),
                _ => mul(a, e),
            };
            vec![attr_assign(attr_name, rmw)]
        }),
    ];
    if depth == 0 {
        return base.boxed();
    }
    let bools = arb_bool_expr(ctx);
    let then_chunks = arb_stmt_seq(ctx, depth - 1);
    let else_chunks = arb_stmt_seq(ctx, depth - 1);
    let if_stmt = (bools, then_chunks, else_chunks)
        .prop_map(|(c, t, e)| vec![if_else(c, t, e)])
        .boxed();

    let counter = ctx.counter();
    let while_body = arb_stmt_seq(&ctx.deeper(counter), depth - 1);
    let while_stmt = (1i64..6, while_body)
        .prop_map(move |(bound, mut body)| {
            body.push(assign(counter, add(var(counter), int(1))));
            vec![
                assign(counter, int(0)),
                while_(lt(var(counter), int(bound)), body),
            ]
        })
        .boxed();

    let loop_var = ctx.loop_var();
    let for_body = arb_stmt_seq(&ctx.deeper(loop_var), depth - 1);
    let for_stmt = (pvec(ints, 0..4), for_body)
        .prop_map(move |(items, body)| vec![for_list(loop_var, Expr::ListLit(items), body)])
        .boxed();

    proptest::strategy::Union::new(vec![base.boxed(), if_stmt, while_stmt, for_stmt]).boxed()
}

/// Strategy for a short statement sequence (flattened chunks).
pub fn arb_stmt_seq(ctx: &ScopeCtx, depth: u32) -> BoxedStrategy<Vec<Stmt>> {
    pvec(arb_stmt_chunk(ctx, depth), 0..4)
        .prop_map(|chunks| chunks.into_iter().flatten().collect())
        .boxed()
}

/// The prelude defining every variable the statement strategies may touch:
/// the scratch ints and the `xs` working list (two elements, so indexing
/// through `% len` is always in range).
fn prelude(scratch: [i64; 4], xs0: i64, xs1: i64) -> Vec<Stmt> {
    let mut p: Vec<Stmt> = SCRATCH_VARS
        .iter()
        .zip(scratch)
        .map(|(n, v)| assign(*n, int(v)))
        .collect();
    p.push(assign("xs", list(vec![int(xs0), int(xs1)])));
    p
}

fn callee_ctx(params: &[&'static str]) -> ScopeCtx {
    let mut reads = params.to_vec();
    reads.extend(SCRATCH_VARS);
    ScopeCtx {
        reads,
        writes: SCRATCH_VARS.to_vec(),
        attr: "acc",
        level: 0,
    }
}

/// Strategy for a callee method (no remote calls): generated int params,
/// prelude, random body, int return.
pub fn arb_callee_method(name: &'static str, params: Vec<&'static str>) -> BoxedStrategy<Method> {
    let ctx = callee_ctx(&params);
    let body = arb_stmt_seq(&ctx, 2);
    let ret_expr = arb_int_expr(&ctx);
    let pre = (
        (-50i64..50, -50i64..50, -50i64..50, -50i64..50),
        (-9i64..9, -9i64..9),
    );
    (pre, body, ret_expr)
        .prop_map(move |(((a, b, c, d), (x0, x1)), stmts, r)| {
            let mut full = prelude([a, b, c, d], x0, x1);
            full.extend(stmts);
            full.push(ret(r));
            let mut mb = MethodBuilder::new(name).returns(Type::Int);
            for p in &params {
                mb = mb.param(*p, Type::Int);
            }
            mb.body(full).build()
        })
        .boxed()
}

/// Strategy for the caller method `go(n: int, other: Callee) -> int`:
/// random straight-line/branchy chunks interleaved with remote calls to
/// `other.bump(..)` / `other.poke(..)` — at statement level, nested in
/// expressions (normalization hoists them), inside `if` arms and inside
/// loops, so the split CFG carries suspension points behind every
/// control-flow shape.
pub fn arb_caller_method(callee_class: &'static str) -> BoxedStrategy<Method> {
    let mut ctx = callee_ctx(&["n"]);
    ctx.reads.extend(["r0", "r1"]);
    ctx.writes.extend(["r0", "r1"]);

    let ints = arb_int_expr(&ctx);
    let bools = arb_bool_expr(&ctx);
    let chunk = arb_stmt_seq(&ctx, 1);

    // One remote-call site in a randomly chosen structural position.
    let call_site = {
        let ints = ints.clone();
        let bools = bools.clone();
        (
            0usize..5,
            ints.clone(),
            ints.clone(),
            bools,
            select(vec!["r0", "r1"]),
        )
            .prop_map(|(shape, e1, e2, cond, dst)| match shape {
                // Plain statement-level call.
                0 => vec![assign(dst, call(var("other"), "bump", vec![e1, e2]))],
                // Call nested inside an expression (normalizer hoists it).
                1 => vec![assign(dst, add(call(var("other"), "poke", vec![e1]), e2))],
                // Call on one arm of a branch.
                2 => vec![if_else(
                    cond,
                    vec![assign(
                        dst,
                        call(var("other"), "bump", vec![e1.clone(), e2]),
                    )],
                    vec![assign(dst, e1)],
                )],
                // Call inside a for loop over the working list.
                3 => vec![for_list(
                    "t9",
                    var("xs"),
                    vec![assign(
                        dst,
                        call(var("other"), "poke", vec![add(var("t9"), e1)]),
                    )],
                )],
                // Call inside a bounded while loop.
                _ => vec![
                    assign("i9", int(0)),
                    while_(
                        lt(var("i9"), int(3)),
                        vec![
                            assign(dst, call(var("other"), "bump", vec![e1, var("i9")])),
                            assign("i9", add(var("i9"), int(1))),
                        ],
                    ),
                ],
            })
            .boxed()
    };

    let pre = (
        (-50i64..50, -50i64..50, -50i64..50, -50i64..50),
        (-9i64..9, -9i64..9),
    );
    (
        (pre, chunk.clone(), call_site.clone()),
        (chunk.clone(), call_site, chunk, ints),
    )
        .prop_map(
            move |((((a, b, c, d), (x0, x1)), pre_c, call1), (mid_c, call2, post_c, r))| {
                let mut full = prelude([a, b, c, d], x0, x1);
                full.push(assign("r0", int(0)));
                full.push(assign("r1", int(0)));
                full.extend(pre_c);
                full.extend(call1);
                full.extend(mid_c);
                full.extend(call2);
                full.extend(post_c);
                full.push(ret(r));
                MethodBuilder::new("go")
                    .param("n", Type::Int)
                    .param("other", Type::entity(callee_class))
                    .returns(Type::Int)
                    .body(full)
                    .build()
            },
        )
        .boxed()
}

/// Strategy for a well-typed `__migrate__` body: the standard prelude plus
/// random local control flow, ending in an attribute rewrite so the
/// migration is observable. No remote calls and no return statement, per
/// the migration-method typing rules (Unit return).
pub fn arb_migration_body() -> BoxedStrategy<Vec<Stmt>> {
    let ctx = callee_ctx(&[]);
    let ints = arb_int_expr(&ctx);
    let pre = (
        (-50i64..50, -50i64..50, -50i64..50, -50i64..50),
        (-9i64..9, -9i64..9),
    );
    (pre, arb_stmt_seq(&ctx, 1), ints)
        .prop_map(|(((a, b, c, d), (x0, x1)), stmts, e)| {
            let mut full = prelude([a, b, c, d], x0, x1);
            full.extend(stmts);
            full.push(attr_assign("acc", e));
            full
        })
        .boxed()
}

/// Strategy for a live-upgrade program pair `(v1, v2)` over the two-class
/// shape of [`arb_two_class_program`]: v2 keeps the caller class (and the
/// callee's `bump`) byte-identical, replaces the callee's `poke` body with a
/// freshly generated one, and adds a generated `__migrate__` method to the
/// callee — so one upgrade exercises incremental recompilation (unchanged
/// methods reuse their artifacts), versioned routing (the changed `poke`)
/// and checked state migration, all against well-typed programs.
pub fn arb_upgrade_pair() -> BoxedStrategy<(Program, Program, i64, i64)> {
    (
        (
            arb_callee_method("bump", vec!["x", "y"]),
            arb_callee_method("poke", vec!["x"]),
            arb_callee_method("poke", vec!["x"]),
        ),
        (
            arb_caller_method("ArbCallee"),
            arb_migration_body(),
            -100i64..100,
            -100i64..100,
        ),
    )
        .prop_map(
            |((bump, poke_v1, poke_v2), (go, migrate, callee_acc, caller_acc))| {
                let callee = |poke: Method, migration: Option<Vec<Stmt>>| {
                    let mut b = ClassBuilder::new("ArbCallee")
                        .attr_default("id", Type::Str, Value::Str(String::new()))
                        .attr_default("acc", Type::Int, Value::Int(callee_acc))
                        .key("id")
                        .method(bump.clone())
                        .method(poke);
                    if let Some(body) = migration {
                        b = b.migration(body);
                    }
                    b.build()
                };
                let caller = ClassBuilder::new("ArbCaller")
                    .attr_default("id", Type::Str, Value::Str(String::new()))
                    .attr_default("acc", Type::Int, Value::Int(caller_acc))
                    .key("id")
                    .method(go)
                    .build();
                let v1 = Program::new(vec![caller.clone(), callee(poke_v1, None)]);
                let v2 = Program::new(vec![caller, callee(poke_v2, Some(migrate))]);
                (v1, v2, caller_acc, callee_acc)
            },
        )
        .boxed()
}

/// Strategy for a whole two-class program: `ArbCallee` (pure int methods
/// `bump`, `poke`) and `ArbCaller` (method `go` chaining remote calls), plus
/// generated initial attribute values.
pub fn arb_two_class_program() -> BoxedStrategy<(Program, i64, i64)> {
    (
        arb_callee_method("bump", vec!["x", "y"]),
        arb_callee_method("poke", vec!["x"]),
        arb_caller_method("ArbCallee"),
        -100i64..100,
        -100i64..100,
    )
        .prop_map(|(bump, poke, go, callee_acc, caller_acc)| {
            let callee = ClassBuilder::new("ArbCallee")
                .attr_default("id", Type::Str, Value::Str(String::new()))
                .attr_default("acc", Type::Int, Value::Int(callee_acc))
                .key("id")
                .method(bump)
                .method(poke)
                .build();
            let caller = ClassBuilder::new("ArbCaller")
                .attr_default("id", Type::Str, Value::Str(String::new()))
                .attr_default("acc", Type::Int, Value::Int(caller_acc))
                .key("id")
                .method(go)
                .build();
            (Program::new(vec![caller, callee]), caller_acc, callee_acc)
        })
        .boxed()
}
