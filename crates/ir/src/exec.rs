//! Execution of split methods: the engine-independent core both runtimes
//! share.
//!
//! [`run_from_block`] executes a method's CFG from a given block until it
//! either returns or suspends on a remote call. [`process_invocation`] wraps
//! that with the event-level protocol: building environments from
//! [`InvocationKind`], pushing/popping continuation [`Frame`]s, and
//! producing the next event to route. Runtimes differ only in *how* they
//! transport the produced events (broker round trips vs. internal channels)
//! and in their consistency protocol — exactly the paper's claim that the
//! choice of runtime is independent of the application layer.

use se_lang::interp::{DenyRemoteCalls, Flow, Interpreter};
use se_lang::{ClassName, EntityState, Env, LangError, Symbol, Value};

use crate::block::{BlockId, CompiledMethod, Terminator};
use crate::event::{Frame, Invocation, InvocationKind, Response};
use crate::graph::CompiledProgram;

/// One method activation, as handed to a [`BodyRunner`].
///
/// Built by the invocation-event protocol from [`InvocationKind`]; the
/// runner owns turning it into whatever activation record it executes
/// against (an environment map for the interpreter, a register file for the
/// VM) — which is what lets the VM skip building a name-keyed map per hop.
#[derive(Debug, Clone, PartialEq)]
pub enum Activation {
    /// A fresh call with evaluated positional arguments. The protocol has
    /// already checked arity against the method signature.
    Start {
        /// Argument values, positionally matching the parameters.
        args: Vec<Value>,
    },
    /// Resumption of a suspended method.
    Resume {
        /// Block to resume at.
        block: BlockId,
        /// The saved (pruned) continuation environment.
        env: Env,
        /// The remote call's return value.
        result: Value,
        /// Variable to bind `result` to, if used.
        result_var: Option<Symbol>,
    },
}

/// Why body execution stopped — the runner-level analogue of
/// [`BlockOutcome`] that also carries the pruned continuation environment on
/// suspension.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyOutcome {
    /// The method returned a value.
    Return(Value),
    /// The method suspended on a remote call.
    Call {
        /// Callee entity.
        target: se_lang::EntityRef,
        /// Callee method.
        method: Symbol,
        /// Evaluated arguments.
        args: Vec<Value>,
        /// Variable receiving the return value.
        result_var: Option<Symbol>,
        /// Block to resume at.
        resume: BlockId,
        /// Exactly the resume block's live-ins that are defined at the
        /// suspension point — the environment that travels in the event.
        saved_env: Env,
    },
}

/// Executes the body of one split method between suspension points.
///
/// This is the seam between the invocation-event protocol (frames, stacks,
/// arity checks — shared by every runtime) and the machinery that actually
/// runs straight-line code. [`InterpBody`] tree-walks the AST; the `se-vm`
/// crate provides a bytecode VM implementation. Both must produce
/// byte-identical return values, state effects and suspension frames.
pub trait BodyRunner: Send + Sync {
    /// Runs one activation of `method` of `class` until it returns or
    /// suspends on a remote call.
    fn run_body(
        &self,
        class: ClassName,
        method: &CompiledMethod,
        activation: Activation,
        state: &mut EntityState,
    ) -> Result<BodyOutcome, LangError>;
}

/// The reference [`BodyRunner`]: tree-walking interpretation via
/// [`run_from_block`].
#[derive(Debug, Default, Clone, Copy)]
pub struct InterpBody;

impl BodyRunner for InterpBody {
    fn run_body(
        &self,
        _class: ClassName,
        method: &CompiledMethod,
        activation: Activation,
        state: &mut EntityState,
    ) -> Result<BodyOutcome, LangError> {
        let (mut env, start) = match activation {
            Activation::Start { args } => {
                let env: Env = method.params.iter().map(|(n, _)| *n).zip(args).collect();
                (env, method.entry)
            }
            Activation::Resume {
                block,
                mut env,
                result,
                result_var,
            } => {
                if let Some(var) = result_var {
                    env.insert(var, result);
                }
                (env, block)
            }
        };
        match run_from_block(method, start, &mut env, state)? {
            BlockOutcome::Return(v) => Ok(BodyOutcome::Return(v)),
            BlockOutcome::Call {
                target,
                method,
                args,
                result_var,
                resume,
            } => Ok(BodyOutcome::Call {
                target,
                method,
                args,
                result_var,
                resume,
                saved_env: env,
            }),
        }
    }
}

/// Why block execution stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockOutcome {
    /// The method returned a value.
    Return(Value),
    /// The method suspended on a remote call.
    Call {
        /// Callee entity.
        target: se_lang::EntityRef,
        /// Callee method.
        method: Symbol,
        /// Evaluated arguments.
        args: Vec<Value>,
        /// Variable receiving the return value.
        result_var: Option<Symbol>,
        /// Block to resume at.
        resume: BlockId,
    },
}

/// Executes `method` starting at `start` until return or suspension.
///
/// Same-entity transitions (`Jump`, `Branch`) are followed locally — only
/// remote calls hop through the dataflow. On suspension the environment is
/// pruned to the resume block's live-ins, mirroring the paper's split
/// functions that pass along only referenced variables.
pub fn run_from_block(
    method: &CompiledMethod,
    start: BlockId,
    env: &mut Env,
    state: &mut EntityState,
) -> Result<BlockOutcome, LangError> {
    let mut interp = Interpreter::new();
    let mut cur = start;
    loop {
        let block = method.block(cur);
        match interp.exec_stmts(&block.stmts, env, state, &mut DenyRemoteCalls)? {
            Flow::Normal => {}
            Flow::Return(v) => return Ok(BlockOutcome::Return(v)),
        }
        match &block.terminator {
            Terminator::Return(e) => {
                let v = interp.eval(e, env, state, &mut DenyRemoteCalls)?;
                return Ok(BlockOutcome::Return(v));
            }
            Terminator::Jump(next) => cur = *next,
            Terminator::Branch {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = interp.eval(cond, env, state, &mut DenyRemoteCalls)?;
                cur = if c.truthy() { *then_blk } else { *else_blk };
            }
            Terminator::RemoteCall {
                target,
                method: callee,
                args,
                result_var,
                resume,
            } => {
                let target_val = interp.eval(target, env, state, &mut DenyRemoteCalls)?;
                let target_ref = *target_val.as_ref()?;
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(interp.eval(a, env, state, &mut DenyRemoteCalls)?);
                }
                // Prune the saved environment to the continuation's live-ins.
                let live = &method.block(*resume).params;
                env.retain(|k, _| live.contains(k));
                return Ok(BlockOutcome::Call {
                    target: target_ref,
                    method: *callee,
                    args: arg_vals,
                    result_var: *result_var,
                    resume: *resume,
                });
            }
        }
    }
}

/// What an operator does with the result of processing one invocation event.
#[derive(Debug, Clone, PartialEq)]
pub enum StepEffect {
    /// Route this follow-up invocation onward (a remote call, or the
    /// resumption of a suspended caller).
    Emit(Invocation),
    /// The root request finished; deliver to the egress router.
    Respond(Response),
}

/// Processes one invocation event against the target entity's state.
///
/// This is the body of the paper's stateful operator: "the system
/// reconstructs the object using the operator's code and the function's
/// state and executes the function" (§2.3). Errors abort the whole chain and
/// are delivered to the egress as a failed [`Response`].
pub fn process_invocation(
    program: &CompiledProgram,
    inv: Invocation,
    state: &mut EntityState,
) -> StepEffect {
    process_invocation_with(program, &InterpBody, inv, state)
}

/// [`process_invocation`] parameterized by the [`BodyRunner`] that executes
/// block bodies — the hook through which the `se-vm` bytecode backend plugs
/// into every runtime without touching the event protocol.
pub fn process_invocation_with(
    program: &CompiledProgram,
    runner: &dyn BodyRunner,
    inv: Invocation,
    state: &mut EntityState,
) -> StepEffect {
    // Copy the request id up front so the error path needs no clone of the
    // whole event (frames and environments included).
    let request = inv.request;
    match process_inner(program, runner, inv, state) {
        Ok(effect) => effect,
        Err(e) => StepEffect::Respond(Response {
            request,
            result: Err(e),
        }),
    }
}

fn process_inner(
    program: &CompiledProgram,
    runner: &dyn BodyRunner,
    inv: Invocation,
    state: &mut EntityState,
) -> Result<StepEffect, LangError> {
    let method = program.method_or_err(inv.target.class, inv.method)?;
    let activation = match inv.kind {
        InvocationKind::Start { args } => {
            if args.len() != method.params.len() {
                return Err(LangError::ArityMismatch {
                    method: format!("{}.{}", inv.target.class, inv.method),
                    expected: method.params.len(),
                    actual: args.len(),
                });
            }
            Activation::Start { args }
        }
        InvocationKind::Resume {
            block,
            env,
            result,
            result_var,
        } => Activation::Resume {
            block,
            env,
            result,
            result_var,
        },
    };

    match runner.run_body(inv.target.class, method, activation, state)? {
        BodyOutcome::Return(value) => {
            let mut stack = inv.stack;
            match stack.pop() {
                None => Ok(StepEffect::Respond(Response {
                    request: inv.request,
                    result: Ok(value),
                })),
                Some(frame) => Ok(StepEffect::Emit(Invocation {
                    request: inv.request,
                    target: frame.entity,
                    method: frame.method,
                    kind: InvocationKind::Resume {
                        block: frame.resume,
                        env: frame.env,
                        result: value,
                        result_var: frame.result_var,
                    },
                    stack,
                    version: inv.version,
                })),
            }
        }
        BodyOutcome::Call {
            target,
            method: callee,
            args,
            result_var,
            resume,
            saved_env,
        } => {
            let mut stack = inv.stack;
            stack.push(Frame {
                entity: inv.target,
                method: inv.method,
                resume,
                env: saved_env,
                result_var,
            });
            Ok(StepEffect::Emit(Invocation {
                request: inv.request,
                target,
                method: callee,
                kind: InvocationKind::Start { args },
                stack,
                version: inv.version,
            }))
        }
    }
}

/// Drives a whole invocation chain to completion against a state-lookup
/// closure, hopping between entities synchronously.
///
/// This is the reference semantics used by tests and by the Aria execute
/// phase (which runs a transaction's chain against snapshot state): route
/// each emitted event to its target's state and continue until a response.
pub fn drive_chain(
    program: &CompiledProgram,
    root: Invocation,
    state_of: impl FnMut(&se_lang::EntityRef) -> Result<EntityState, LangError>,
    store_back: impl FnMut(&se_lang::EntityRef, EntityState),
    max_hops: usize,
) -> Response {
    drive_chain_with(program, &InterpBody, root, state_of, store_back, max_hops)
}

/// [`drive_chain`] parameterized by the [`BodyRunner`] executing bodies.
pub fn drive_chain_with(
    program: &CompiledProgram,
    runner: &dyn BodyRunner,
    root: Invocation,
    mut state_of: impl FnMut(&se_lang::EntityRef) -> Result<EntityState, LangError>,
    mut store_back: impl FnMut(&se_lang::EntityRef, EntityState),
    max_hops: usize,
) -> Response {
    let request = root.request;
    let mut current = root;
    for _ in 0..max_hops {
        let target = current.target;
        let mut state = match state_of(&target) {
            Ok(s) => s,
            Err(e) => {
                return Response {
                    request,
                    result: Err(e),
                }
            }
        };
        let effect = process_invocation_with(program, runner, current, &mut state);
        store_back(&target, state);
        match effect {
            StepEffect::Respond(r) => return r,
            StepEffect::Emit(next) => current = next,
        }
    }
    Response {
        request,
        result: Err(LangError::runtime(format!(
            "invocation chain exceeded {max_hops} hops"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::event::RequestId;
    use crate::graph::{CompiledClass, CompiledProgram};
    use crate::machine::StateMachine;
    use se_lang::builder::*;
    use se_lang::{EntityRef, Type, Value};

    /// Hand-compiled two-class program: `A.double_price(item)` calls
    /// `B.price()` and returns twice the result.
    fn hand_program() -> CompiledProgram {
        let b_class = ClassBuilder::new("B")
            .attr_default("id", Type::Str, Value::Str(String::new()))
            .attr_default("price", Type::Int, Value::Int(21))
            .key("id")
            .build();
        let b_price = CompiledMethod {
            name: "price".into(),
            params: vec![],
            ret: Type::Int,
            transactional: false,
            blocks: vec![Block {
                id: BlockId(0),
                params: vec![],
                stmts: vec![],
                terminator: Terminator::Return(attr("price")),
            }],
            entry: BlockId(0),
        };

        let a_class = ClassBuilder::new("A")
            .attr_default("id", Type::Str, Value::Str(String::new()))
            .key("id")
            .build();
        let a_double = CompiledMethod {
            name: "double_price".into(),
            params: vec![("item".into(), Type::entity("B"))],
            ret: Type::Int,
            transactional: false,
            blocks: vec![
                Block {
                    id: BlockId(0),
                    params: vec!["item".into()],
                    stmts: vec![],
                    terminator: Terminator::RemoteCall {
                        target: var("item"),
                        method: "price".into(),
                        args: vec![],
                        result_var: Some("p".into()),
                        resume: BlockId(1),
                    },
                },
                Block {
                    id: BlockId(1),
                    params: vec!["p".into()],
                    stmts: vec![],
                    terminator: Terminator::Return(mul(int(2), var("p"))),
                },
            ],
            entry: BlockId(0),
        };

        let mk = |class, methods: Vec<CompiledMethod>| {
            let machines = methods.iter().map(StateMachine::from_method).collect();
            CompiledClass {
                class,
                methods,
                machines,
            }
        };
        CompiledProgram {
            classes: vec![mk(a_class, vec![a_double]), mk(b_class, vec![b_price])],
        }
    }

    #[test]
    fn start_suspends_and_resume_completes() {
        let p = hand_program();
        let a = EntityRef::new("A", "a1");
        let b = EntityRef::new("B", "b1");
        let root = Invocation::root(RequestId(1), a, "double_price", vec![Value::Ref(b)]);

        let mut a_state = p.class("A").unwrap().class.initial_state("a1", []);
        let effect = process_invocation(&p, root, &mut a_state);
        let StepEffect::Emit(call_event) = effect else {
            panic!("expected Emit")
        };
        assert_eq!(call_event.target, b);
        assert_eq!(call_event.method, "price");
        assert_eq!(call_event.stack.len(), 1);
        // The frame's env was pruned to the resume block's live-ins: only `p`
        // is live, and `p` is the result var, so nothing else is carried.
        assert!(call_event.stack[0].env.is_empty());

        let mut b_state = p.class("B").unwrap().class.initial_state("b1", []);
        let effect = process_invocation(&p, call_event, &mut b_state);
        let StepEffect::Emit(resume_event) = effect else {
            panic!("expected Emit")
        };
        assert_eq!(resume_event.target, a);
        assert!(matches!(
            resume_event.kind,
            InvocationKind::Resume {
                result: Value::Int(21),
                ..
            }
        ));

        let effect = process_invocation(&p, resume_event, &mut a_state);
        let StepEffect::Respond(resp) = effect else {
            panic!("expected Respond")
        };
        assert_eq!(resp.result.unwrap(), Value::Int(42));
    }

    #[test]
    fn arity_error_responds() {
        let p = hand_program();
        let a = EntityRef::new("A", "a1");
        let root = Invocation::root(RequestId(2), a, "double_price", vec![]);
        let mut st = p.class("A").unwrap().class.initial_state("a1", []);
        let StepEffect::Respond(resp) = process_invocation(&p, root, &mut st) else {
            panic!("expected Respond")
        };
        assert!(matches!(resp.result, Err(LangError::ArityMismatch { .. })));
    }

    #[test]
    fn drive_chain_end_to_end() {
        let p = hand_program();
        let a = EntityRef::new("A", "a1");
        let b = EntityRef::new("B", "b1");
        let mut store = std::collections::HashMap::new();
        store.insert(a, p.class("A").unwrap().class.initial_state("a1", []));
        store.insert(b, p.class("B").unwrap().class.initial_state("b1", []));

        let root = Invocation::root(RequestId(3), a, "double_price", vec![Value::Ref(b)]);
        let store_cell = std::cell::RefCell::new(store);
        let resp = drive_chain(
            &p,
            root,
            |r| {
                store_cell
                    .borrow()
                    .get(r)
                    .cloned()
                    .ok_or_else(|| LangError::runtime(format!("no entity {r}")))
            },
            |r, s| {
                store_cell.borrow_mut().insert(*r, s);
            },
            16,
        );
        assert_eq!(resp.result.unwrap(), Value::Int(42));
    }

    #[test]
    fn drive_chain_hop_limit() {
        let p = hand_program();
        let a = EntityRef::new("A", "a1");
        let b = EntityRef::new("B", "b1");
        let root = Invocation::root(RequestId(4), a, "double_price", vec![Value::Ref(b)]);
        let p2 = p.clone();
        let resp = drive_chain(
            &p2,
            root,
            |r| Ok(p.class(r.class).unwrap().class.initial_state(r.key, [])),
            |_, _| {},
            1, // too few hops for the 3-hop chain
        );
        assert!(resp.result.unwrap_err().to_string().contains("exceeded"));
    }
}
