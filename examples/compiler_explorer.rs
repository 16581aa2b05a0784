//! Compiler explorer: prints what each stage of the pipeline (§2) does to
//! the Figure-1 program — the normalized statements, the split-function
//! blocks with their live-in parameters, the execution state machine as
//! Graphviz, and the logical dataflow graph (the paper's Figure 2).
//!
//! ```sh
//! cargo run --release --example compiler_explorer
//! # pipe the dot output into graphviz to render the figures:
//! cargo run --release --example compiler_explorer | awk '/^digraph/,/^}/' | dot -Tpng > graph.png
//! ```

use se_compiler::{normalize_program, CallGraph};
use se_ir::Terminator;

fn main() {
    let program = stateful_entities::programs::figure1_program();

    println!("━━━ stage 0: the source program (paper Figure 1) ━━━");
    println!("{}", se_lang::pretty::program_to_source(&program));

    println!("━━━ stage 1: static analysis (type check) ━━━");
    match se_lang::typecheck::check_program(&program) {
        Ok(()) => println!("  ok: all type hints present and consistent\n"),
        Err(errs) => {
            for e in errs {
                println!("  error: {e}");
            }
            return;
        }
    }

    println!("━━━ stage 2: remote-call normalization ━━━");
    let normalized = normalize_program(&program);
    let buy = normalized
        .class("User")
        .unwrap()
        .method("buy_item")
        .unwrap();
    println!("  buy_item body after hoisting calls to statement level:");
    print!("{}", se_lang::pretty::method_to_source(buy, 1));

    println!("\n━━━ stage 3: call graph ━━━");
    let cg = CallGraph::build(&normalized).expect("resolves");
    for (caller, callees) in &cg.edges {
        for callee in callees {
            println!("  {}.{} → {}.{}", caller.0, caller.1, callee.0, callee.1);
        }
    }
    println!(
        "  recursion check: {:?}",
        cg.check_no_recursion().map(|_| "acyclic")
    );
    println!("  max call depth: {}", cg.max_depth());

    println!("\n━━━ stage 4: function splitting ━━━");
    let graph = stateful_entities::compile(&program).expect("compiles");
    let compiled = graph.program.method_or_err("User", "buy_item").unwrap();
    for block in &compiled.blocks {
        println!("  block {} (params = {:?}):", block.id, block.params);
        for stmt in &block.stmts {
            println!("      {stmt:?}");
        }
        match &block.terminator {
            Terminator::Return(e) => println!("      ⇒ return {e:?}"),
            Terminator::Jump(b) => println!("      ⇒ jump {b}"),
            Terminator::Branch { cond, then_blk, else_blk } => {
                println!("      ⇒ if {cond:?} then {then_blk} else {else_blk}")
            }
            Terminator::RemoteCall { target, method, args, result_var, resume } => println!(
                "      ⇒ SUSPEND: call {target:?}.{method}({args:?}) → {result_var:?}, resume at {resume}"
            ),
        }
    }

    println!("\n━━━ stage 4b: bytecode lowering (se-vm, the engines' body runner) ━━━");
    let vm = se_vm::VmProgram::compile(&graph.program);
    let user_vm = vm
        .classes()
        .iter()
        .find(|c| c.class == "User")
        .expect("User class compiled");
    let buy_vm = user_vm
        .methods
        .iter()
        .find(|m| m.name == "buy_item")
        .expect("buy_item lowered");
    print!("{}", se_vm::disasm_method(user_vm, buy_vm));
    println!(
        "  ({} methods lowered, {} instructions total; this is what both engines execute)",
        vm.compiled_methods(),
        vm.total_ops()
    );

    println!("\n━━━ stage 5: execution state machine (paper §2.5) ━━━");
    let machine = graph
        .program
        .class("User")
        .unwrap()
        .machine("buy_item")
        .unwrap();
    println!("{}", machine.to_dot());

    println!("━━━ stage 6: logical dataflow graph (paper Figure 2) ━━━");
    println!("{}", graph.to_dot());

    let stats = stateful_entities::stats(&graph);
    println!("━━━ summary ━━━");
    println!(
        "  {} operators, {} methods, {} blocks total, {} suspension points, {} simple methods",
        stats.classes, stats.methods, stats.blocks, stats.suspension_points, stats.simple_methods
    );
}
