//! Compiled bytecode artifacts: methods, classes, and the deploy-time cache.

use se_ir::{
    Activation, BlockId, BodyOutcome, BodyRunner, CompiledMethod, CompiledProgram, InterpBody,
};
use se_lang::{ClassName, EntityState, LangError, Symbol};

use crate::op::{CodeIdx, ConstPool, Op, Reg};
use crate::vm::Vm;

/// One method body lowered to register bytecode.
///
/// The register file layout: registers `0..locals.len()` hold the method's
/// named locals (parameters, assigned variables, loop variables, block
/// live-ins); registers above hold expression temporaries in stack
/// discipline. Cross-block control transfers stay inside one flat `code`
/// array — only remote calls leave it, via [`Op::Suspend`].
#[derive(Debug, Clone, PartialEq)]
pub struct VmMethod {
    /// Method name.
    pub name: Symbol,
    /// The instruction stream, all blocks concatenated.
    pub code: Vec<Op>,
    /// Entry code index of each block, indexed by [`BlockId`].
    pub block_entry: Vec<CodeIdx>,
    /// Entry block of the method.
    pub entry: BlockId,
    /// Names of the low (local-variable) registers, in register order.
    /// Parameters occupy the first registers in declaration order.
    pub locals: Vec<Symbol>,
    /// Name → register lookup for seeding the register file from a resumed
    /// environment: sorted by symbol for binary search (symbol comparisons
    /// are integer comparisons, far cheaper than hashing on a per-hop path).
    pub local_index: Vec<(Symbol, Reg)>,
    /// Number of declared parameters (a prefix of `locals`); Start
    /// activations may bind at most this many arguments.
    pub nparams: u16,
    /// Total register-file size (locals + temporary high-water mark).
    pub nregs: u16,
}

impl VmMethod {
    /// Register holding local `name`, if this method knows that name.
    pub fn local_reg(&self, name: Symbol) -> Option<Reg> {
        self.local_index
            .binary_search_by_key(&name, |(s, _)| *s)
            .ok()
            .map(|i| self.local_index[i].1)
    }
}

/// All compiled methods of one entity class plus their shared constant pool.
#[derive(Debug, Clone, PartialEq)]
pub struct VmClass {
    /// Class name.
    pub class: ClassName,
    /// The class constant pool (values + attribute names).
    pub pool: ConstPool,
    /// Compiled methods.
    pub methods: Vec<VmMethod>,
}

/// A whole program compiled to bytecode: the per-class/method cache built
/// once at deploy time and shared (behind an `Arc`) by every worker thread.
///
/// `VmProgram` implements [`BodyRunner`], so it plugs directly into
/// `se_ir::process_invocation_with` — the event protocol (frames, stacks,
/// arity checks) stays identical between backends by construction.
#[derive(Debug, Clone, Default)]
pub struct VmProgram {
    classes: Vec<VmClass>,
    /// `(class, method) → (class idx, method idx)`, sorted for binary
    /// search — symbol-pair comparisons are integer compares, and this
    /// lookup sits on the per-hop hot path.
    index: Vec<((ClassName, Symbol), (u32, u32))>,
    /// Methods the lowering pass rejected, with the reason; these bodies
    /// fall back to the interpreter at runtime.
    skipped: Vec<(ClassName, Symbol, LangError)>,
}

impl VmProgram {
    /// Lowers every method of every class of `program` to bytecode.
    ///
    /// Methods the lowering pass rejects are skipped — recorded in
    /// [`VmProgram::skipped_methods`] and warned about on stderr — and fall
    /// back to the reference interpreter ([`InterpBody`]) at runtime. For
    /// pipeline-compiled programs the only rejection cause is an invalid
    /// split (a remote call inside a block body), which the interpreter
    /// then reports; resource-limit rejections (constant-pool or register
    /// overflow) would otherwise silently forfeit the VM speedup, hence the
    /// warning.
    pub fn compile(program: &CompiledProgram) -> VmProgram {
        let mut classes = Vec::with_capacity(program.classes.len());
        let mut index = Vec::new();
        let mut skipped = Vec::new();
        for compiled in &program.classes {
            let mut pool = crate::lower::PoolBuilder::default();
            let mut methods = Vec::with_capacity(compiled.methods.len());
            for method in &compiled.methods {
                match crate::lower::lower_method(&mut pool, method) {
                    Ok(vm_method) => methods.push(vm_method),
                    Err(e) => {
                        eprintln!(
                            "warning: se-vm could not lower {}.{} ({e}); \
                             it will run on the interpreter",
                            compiled.class.name, method.name
                        );
                        skipped.push((compiled.class.name, method.name, e));
                    }
                }
            }
            let vm_class = VmClass {
                class: compiled.class.name,
                pool: pool.finish(),
                methods,
            };
            for (mi, m) in vm_class.methods.iter().enumerate() {
                index.push(((vm_class.class, m.name), (classes.len() as u32, mi as u32)));
            }
            classes.push(vm_class);
        }
        index.sort_unstable_by_key(|(k, _)| *k);
        VmProgram {
            classes,
            index,
            skipped,
        }
    }

    /// Methods the lowering pass rejected (falling back to the
    /// interpreter), with the rejection reason.
    pub fn skipped_methods(&self) -> &[(ClassName, Symbol, LangError)] {
        &self.skipped
    }

    /// Looks up the compiled body of `class.method`, if lowering produced
    /// one.
    pub fn method(&self, class: ClassName, method: Symbol) -> Option<(&VmClass, &VmMethod)> {
        let i = self
            .index
            .binary_search_by_key(&(class, method), |(k, _)| *k)
            .ok()?;
        let (ci, mi) = self.index[i].1;
        let c = &self.classes[ci as usize];
        Some((c, &c.methods[mi as usize]))
    }

    /// The compiled classes, in program declaration order.
    pub fn classes(&self) -> &[VmClass] {
        &self.classes
    }

    /// Total number of compiled method bodies.
    pub fn compiled_methods(&self) -> usize {
        self.index.len()
    }

    /// Total number of instructions across all compiled bodies.
    pub fn total_ops(&self) -> usize {
        self.classes
            .iter()
            .flat_map(|c| &c.methods)
            .map(|m| m.code.len())
            .sum()
    }
}

impl BodyRunner for VmProgram {
    fn run_body(
        &self,
        class: ClassName,
        method: &CompiledMethod,
        activation: Activation,
        state: &mut EntityState,
    ) -> Result<BodyOutcome, LangError> {
        match self.method(class, method.name) {
            Some((vm_class, vm_method)) => Vm::new().run(vm_class, vm_method, activation, state),
            None => InterpBody.run_body(class, method, activation, state),
        }
    }
}
