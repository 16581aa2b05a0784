//! The end-to-end compiler pipeline (§2.1).
//!
//! "Developers simply annotate Python classes … and the system automatically
//! analyzes and transforms these classes into an intermediate representation
//! which is then transformed into stateful dataflow graphs, ready to be
//! deployed on a dataflow system."
//!
//! Passes, in order:
//!
//! 1. **Static analysis / type checking** ([`se_lang::typecheck`]) — ensures
//!    type hints exist and are consistent, keys exist and are immutable.
//! 2. **Normalization** ([`crate::normalize`]) — hoists remote calls to
//!    statement level.
//! 3. **Call-graph analysis** ([`crate::callgraph`]) — resolves call
//!    targets, rejects recursion.
//! 4. **Function splitting** ([`crate::split`]) — lowers methods to block
//!    CFGs, with live-variable analysis ([`crate::liveness`]) computing each
//!    split function's arguments.
//! 5. **State-machine derivation** ([`se_ir::StateMachine`]).
//! 6. **Graph assembly** — one operator per class, ingress/egress routers,
//!    call edges from the call graph, and a loopback edge.

use se_ir::{
    CompiledClass, CompiledProgram, DataflowGraph, EdgeKind, EdgeSpec, NodeRef, OperatorId,
    OperatorSpec, StateMachine,
};
use se_lang::{LangError, Program};

use crate::callgraph::CallGraph;
use crate::normalize::normalize_program;
use crate::split::split_method;

/// Compiles a program into the deployable dataflow-graph IR.
///
/// The graph carries [`se_ir::INITIAL_VERSION`]; a live redeploy compiles
/// the new program through this same call and stamps the next version on
/// the result.
pub fn compile(program: &Program) -> Result<DataflowGraph, Vec<LangError>> {
    // Pass 1: static analysis.
    se_lang::typecheck::check_program(program)?;

    // Pass 2: normalization.
    let normalized = normalize_program(program);

    // Pass 3: call graph + recursion rejection (on the normalized program —
    // normalization introduces no calls, so graphs coincide; resolving on
    // the normalized form is what the splitter will see).
    let callgraph = CallGraph::build(&normalized)?;
    callgraph.check_no_recursion().map_err(|e| vec![e])?;

    // Passes 4–5: split every method, derive machines.
    let mut classes = Vec::with_capacity(normalized.classes.len());
    let mut errors = Vec::new();
    for class in &normalized.classes {
        let mut methods = Vec::with_capacity(class.methods.len());
        let mut machines = Vec::with_capacity(class.methods.len());
        for method in &class.methods {
            match split_method(class.name.as_str(), method) {
                Ok(compiled) => {
                    machines.push(StateMachine::from_method(&compiled));
                    methods.push(compiled);
                }
                Err(e) => errors.push(e),
            }
        }
        classes.push(CompiledClass {
            class: class.clone(),
            methods,
            machines,
        });
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    // Pass 6: graph assembly.
    let compiled = CompiledProgram { classes };
    let operators: Vec<OperatorSpec> = compiled
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| OperatorSpec {
            id: OperatorId(i),
            class_name: c.class.name,
        })
        .collect();

    let op_id = |name: se_lang::ClassName| {
        operators
            .iter()
            .find(|o| o.class_name == name)
            .map(|o| o.id)
            .expect("operator exists for every class")
    };

    let mut edges = Vec::new();
    for op in &operators {
        edges.push(EdgeSpec {
            from: NodeRef::Ingress,
            to: NodeRef::Operator(op.id),
            kind: EdgeKind::Ingress,
        });
        edges.push(EdgeSpec {
            from: NodeRef::Operator(op.id),
            to: NodeRef::Egress,
            kind: EdgeKind::Egress,
        });
    }
    for (caller, callees) in &callgraph.edges {
        for callee in callees {
            edges.push(EdgeSpec {
                from: NodeRef::Operator(op_id(caller.0)),
                to: NodeRef::Operator(op_id(callee.0)),
                kind: EdgeKind::Call {
                    caller: format!("{}.{}", caller.0, caller.1),
                    callee: format!("{}.{}", callee.0, callee.1),
                },
            });
        }
    }
    // Continuations loop back into the dataflow (via Kafka on engines
    // without cycles, §3).
    edges.push(EdgeSpec {
        from: NodeRef::Egress,
        to: NodeRef::Ingress,
        kind: EdgeKind::Loopback,
    });

    Ok(DataflowGraph {
        program: compiled,
        operators,
        edges,
        version: se_ir::INITIAL_VERSION,
    })
}

/// Aggregate statistics of a compiled graph (used by the compiler
/// micro-benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Number of entity classes / operators.
    pub classes: usize,
    /// Number of methods.
    pub methods: usize,
    /// Total split-function blocks.
    pub blocks: usize,
    /// Total remote-call suspension points.
    pub suspension_points: usize,
    /// Methods that needed no splitting.
    pub simple_methods: usize,
}

impl CompileStats {
    /// Publishes this graph's shape into the shared `se-obs` registry as
    /// `compiler.*` gauges (idempotent: gauges are set, not accumulated, so
    /// re-deploying the same graph does not inflate them).
    pub fn publish(&self, obs: &se_obs::Obs) {
        obs.gauge("compiler.classes").set(self.classes as i64);
        obs.gauge("compiler.methods").set(self.methods as i64);
        obs.gauge("compiler.blocks").set(self.blocks as i64);
        obs.gauge("compiler.suspension_points")
            .set(self.suspension_points as i64);
        obs.gauge("compiler.simple_methods")
            .set(self.simple_methods as i64);
    }
}

/// Computes [`CompileStats`] for a graph.
pub fn stats(graph: &DataflowGraph) -> CompileStats {
    let mut s = CompileStats {
        classes: graph.program.classes.len(),
        ..Default::default()
    };
    for c in &graph.program.classes {
        for m in &c.methods {
            s.methods += 1;
            s.blocks += m.blocks.len();
            s.suspension_points += m.suspension_points();
            if m.is_simple() {
                s.simple_methods += 1;
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_lang::programs::{chain_program, counter_program, figure1_program};

    #[test]
    fn compiles_figure1() {
        let g = compile(&figure1_program()).unwrap();
        assert_eq!(g.operators.len(), 2);
        let s = stats(&g);
        assert_eq!(s.classes, 2);
        assert_eq!(s.methods, 5);
        assert_eq!(s.suspension_points, 3, "{s:?}");
        // User → Item call edges exist for both callee methods.
        let call_edges: Vec<_> = g
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Call { .. }))
            .collect();
        assert_eq!(call_edges.len(), 2);
        // Loopback edge present.
        assert!(g.edges.iter().any(|e| matches!(e.kind, EdgeKind::Loopback)));
    }

    #[test]
    fn counter_compiles_simple() {
        let g = compile(&counter_program()).unwrap();
        let s = stats(&g);
        assert_eq!(s.simple_methods, 2);
        assert_eq!(s.suspension_points, 0);
    }

    #[test]
    fn chain_compiles_with_one_split_per_hop() {
        let depth = 5;
        let g = compile(&chain_program(depth)).unwrap();
        assert_eq!(stats(&g).suspension_points, depth);
    }

    #[test]
    fn type_errors_surface() {
        let mut p = figure1_program();
        // Corrupt: make balance a str so arithmetic fails.
        p.classes[0]
            .attrs
            .iter_mut()
            .find(|a| a.name == "balance")
            .unwrap()
            .ty = se_lang::Type::Str;
        let errs = compile(&p).unwrap_err();
        assert!(!errs.is_empty());
    }

    #[test]
    fn recursion_rejected_by_pipeline() {
        use se_lang::builder::*;
        let node = ClassBuilder::new("Node")
            .attr_default("id", se_lang::Type::Str, se_lang::Value::Str(String::new()))
            .key("id")
            .method(
                MethodBuilder::new("ping")
                    .param("other", se_lang::Type::entity("Node"))
                    .returns(se_lang::Type::Unit)
                    .body(vec![expr_stmt(call(
                        var("other"),
                        "ping",
                        vec![var("other")],
                    ))]),
            )
            .build();
        let errs = compile(&Program::new(vec![node])).unwrap_err();
        assert!(errs[0].to_string().contains("recursive"), "{errs:?}");
    }

    #[test]
    fn graph_dot_renders() {
        let g = compile(&figure1_program()).unwrap();
        let dot = g.to_dot();
        assert!(dot.contains("User"));
        assert!(dot.contains("Item"));
        assert!(dot.contains("loopback"));
    }
}
