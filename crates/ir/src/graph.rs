//! The enriched stateful dataflow graph — the paper's IR (§2.5).
//!
//! "Each Python class translates to an operator (also called a vertex) in
//! the dataflow graph" (§2.3). After static analysis "each dataflow operator
//! is enriched with the entity/method names that it can run, their
//! input/return types, as well as their method body" — here, the
//! [`CompiledClass`] with its split [`CompiledMethod`]s and state machines.

use serde::{Deserialize, Serialize};

use se_lang::{ClassName, EntityClass, LangError, Symbol};

use crate::block::CompiledMethod;
use crate::machine::StateMachine;

/// Index of an operator in the dataflow graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct OperatorId(pub usize);

/// A compiled entity class: the original class definition enriched with the
/// split methods and their state machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledClass {
    /// The source class (attributes, key, original bodies).
    pub class: EntityClass,
    /// Compiled (split) methods, one per source method.
    pub methods: Vec<CompiledMethod>,
    /// State machines, parallel to `methods`.
    pub machines: Vec<StateMachine>,
}

impl CompiledClass {
    /// Class name.
    pub fn name(&self) -> ClassName {
        self.class.name
    }

    /// Looks up a compiled method by name.
    pub fn method(&self, name: impl Into<Symbol>) -> Option<&CompiledMethod> {
        let name = name.into();
        self.methods.iter().find(|m| m.name == name)
    }

    /// Looks up a state machine by method name.
    pub fn machine(&self, name: impl Into<Symbol>) -> Option<&StateMachine> {
        let name = name.into();
        self.methods
            .iter()
            .position(|m| m.name == name)
            .map(|i| &self.machines[i])
    }
}

/// A compiled program: every class compiled, ready for graph assembly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledProgram {
    /// Compiled classes in declaration order.
    pub classes: Vec<CompiledClass>,
}

impl CompiledProgram {
    /// Looks up a compiled class by name.
    pub fn class(&self, name: impl Into<Symbol>) -> Option<&CompiledClass> {
        let name = name.into();
        self.classes.iter().find(|c| c.class.name == name)
    }

    /// Looks up a compiled class, erroring if absent.
    pub fn class_or_err(&self, name: impl Into<Symbol>) -> Result<&CompiledClass, LangError> {
        let name = name.into();
        self.class(name)
            .ok_or_else(|| LangError::UndefinedClass(name.to_string()))
    }

    /// Looks up a compiled method, erroring if absent.
    pub fn method_or_err(
        &self,
        class: impl Into<Symbol>,
        method: impl Into<Symbol>,
    ) -> Result<&CompiledMethod, LangError> {
        let (class, method) = (class.into(), method.into());
        self.class_or_err(class)?
            .method(method)
            .ok_or_else(|| LangError::UndefinedMethod {
                class: class.to_string(),
                method: method.to_string(),
            })
    }

    /// Total number of split-function blocks across the program.
    pub fn total_blocks(&self) -> usize {
        self.classes
            .iter()
            .flat_map(|c| &c.methods)
            .map(|m| m.blocks.len())
            .sum()
    }
}

/// A node of the dataflow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeRef {
    /// The ingress router: partitions incoming events by entity key.
    Ingress,
    /// The egress router: returns responses to clients or loops
    /// continuations back into the dataflow.
    Egress,
    /// A stateful entity operator.
    Operator(OperatorId),
}

/// Why an edge exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Client events entering the dataflow.
    Ingress,
    /// Responses leaving the dataflow.
    Egress,
    /// Entity-to-entity method call discovered by call-graph analysis.
    Call {
        /// Caller method (`Class.method` at the source operator).
        caller: String,
        /// Callee method at the destination operator.
        callee: String,
    },
    /// Feedback edge re-inserting continuation events (the Kafka loopback on
    /// engines without cyclic dataflows, or an internal cycle on StateFlow).
    Loopback,
}

/// A directed edge of the dataflow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// Source node.
    pub from: NodeRef,
    /// Destination node.
    pub to: NodeRef,
    /// Edge label.
    pub kind: EdgeKind,
}

/// Deployment descriptor of one operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorSpec {
    /// Operator id (index into [`DataflowGraph::operators`]).
    pub id: OperatorId,
    /// Entity class this operator hosts.
    pub class_name: ClassName,
}

/// The full IR: compiled classes plus graph topology.
///
/// "That dataflow graph can then be compiled and deployed to a variety of
/// distributed systems" — runtimes consume this structure and nothing else,
/// which is what makes applications portable across engines (§1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataflowGraph {
    /// The compiled program.
    pub program: CompiledProgram,
    /// One operator per entity class.
    pub operators: Vec<OperatorSpec>,
    /// Topology edges.
    pub edges: Vec<EdgeSpec>,
    /// Program version: 1 for an initial deploy; a live redeploy stamps
    /// the previous version + 1 on its freshly compiled graph.
    pub version: u64,
}

impl DataflowGraph {
    /// The operator hosting `class`, if any.
    pub fn operator_for(&self, class: impl Into<Symbol>) -> Option<&OperatorSpec> {
        let class = class.into();
        self.operators.iter().find(|o| o.class_name == class)
    }

    /// Graphviz rendering of the logical dataflow (Figure 2 of the paper).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "digraph dataflow {{");
        let _ = writeln!(out, "  rankdir=LR; node [fontname=monospace];");
        let _ = writeln!(out, "  ingress [shape=cds, label=\"ingress router\"];");
        let _ = writeln!(out, "  egress [shape=cds, label=\"egress router\"];");
        for op in &self.operators {
            let methods = self
                .program
                .class(op.class_name)
                .map(|c| {
                    c.methods
                        .iter()
                        .map(|m| format!("{}({} blocks)", m.name, m.blocks.len()))
                        .collect::<Vec<_>>()
                        .join("\\n")
                })
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  op{} [shape=record, label=\"{{{}|{}}}\"];",
                op.id.0, op.class_name, methods
            );
        }
        let name = |n: &NodeRef| match n {
            NodeRef::Ingress => "ingress".to_string(),
            NodeRef::Egress => "egress".to_string(),
            NodeRef::Operator(id) => format!("op{}", id.0),
        };
        for e in &self.edges {
            let style = match &e.kind {
                EdgeKind::Call { callee, .. } => format!(" [label=\"{callee}\", style=dashed]"),
                EdgeKind::Loopback => " [style=dotted, label=\"loopback\"]".to_string(),
                _ => String::new(),
            };
            let _ = writeln!(out, "  {} -> {}{};", name(&e.from), name(&e.to), style);
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockId, Terminator};
    use se_lang::builder::*;
    use se_lang::{Type, Value};

    fn tiny_graph() -> DataflowGraph {
        let class = se_lang::builder::ClassBuilder::new("Counter")
            .attr_default("id", Type::Str, Value::Str(String::new()))
            .attr_default("n", Type::Int, Value::Int(0))
            .key("id")
            .build();
        let method = CompiledMethod {
            name: "get".into(),
            params: vec![],
            ret: Type::Int,
            transactional: false,
            blocks: vec![Block {
                id: BlockId(0),
                params: vec![],
                stmts: vec![],
                terminator: Terminator::Return(attr("n")),
            }],
            entry: BlockId(0),
        };
        let machine = StateMachine::from_method(&method);
        let compiled = CompiledClass {
            class,
            methods: vec![method],
            machines: vec![machine],
        };
        DataflowGraph {
            program: CompiledProgram {
                classes: vec![compiled],
            },
            version: 1,
            operators: vec![OperatorSpec {
                id: OperatorId(0),
                class_name: "Counter".into(),
            }],
            edges: vec![
                EdgeSpec {
                    from: NodeRef::Ingress,
                    to: NodeRef::Operator(OperatorId(0)),
                    kind: EdgeKind::Ingress,
                },
                EdgeSpec {
                    from: NodeRef::Operator(OperatorId(0)),
                    to: NodeRef::Egress,
                    kind: EdgeKind::Egress,
                },
            ],
        }
    }

    #[test]
    fn lookups() {
        let g = tiny_graph();
        assert!(g.operator_for("Counter").is_some());
        assert!(g.operator_for("Nope").is_none());
        assert!(g.program.method_or_err("Counter", "get").is_ok());
        assert!(g.program.method_or_err("Counter", "missing").is_err());
        assert!(g.program.method_or_err("Nope", "get").is_err());
        assert_eq!(g.program.total_blocks(), 1);
    }

    #[test]
    fn dot_render() {
        let dot = tiny_graph().to_dot();
        assert!(dot.contains("ingress -> op0"));
        assert!(dot.contains("{Counter|get(1 blocks)}"));
    }
}
