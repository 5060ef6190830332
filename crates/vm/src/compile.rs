//! AST → register bytecode compiler.
//!
//! One [`CompiledProgram`] per source [`Program`]: a dense `Vec<Op>` per
//! unit, a constant pool, scalar/array names resolved to slot indices,
//! COMMON members resolved to process-flat storage indices, and
//! [`DoSpec`]s that carry the DOALL schedule plus the reduction and
//! privatization facts the parallel dispatcher needs. The compiler runs
//! the *same* analysis the tree-walk interpreter runs per execution
//! ([`ped_analysis::doall::doall_facts`]) — but runs it once, at
//! compile time, and the result is memoized process-wide
//! by content fingerprint ([`compile_cached`]).
//!
//! Faithfulness contract: compiled execution must be byte-identical to
//! the tree-walk on lines, stats and races. Any construct whose
//! compiled semantics could diverge from the interpreter's (COMMON
//! shadowing quirks, arity mismatches destined for runtime errors,
//! array/scalar actual-formal mismatches, function calls hidden in
//! initializers, …) is rejected with [`CompileError`] and the caller
//! falls back to the tree-walk, which reproduces the interpreter's
//! exact behaviour by construction.

use crate::rt::{proto_of, zero_of, RuntimeError};
use crate::value::{Cell, Value};
use ped_fortran::ast::*;
use ped_fortran::fingerprint::{unit_fingerprint, Fnv};
use ped_fortran::symbols::{implicit_type, is_intrinsic, Storage, SymbolTable};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Why a program cannot be compiled (caller falls back to the
/// tree-walk).
#[derive(Clone, Debug, PartialEq)]
pub struct CompileError(pub String);

fn unsup<T>(why: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError(why.into()))
}

type CResult<T> = Result<T, CompileError>;

/// Conversion-check sites interleaved with subexpression evaluation;
/// each carries the interpreter's exact error string.
#[derive(Clone, Copy, Debug)]
pub enum ToIntKind {
    /// "non-integer loop bound"
    LoopBound,
    /// "non-integer loop step"
    LoopStep,
    /// "non-integer subscript"
    Subscript,
    /// "computed GOTO index not integer"
    GotoIndex,
    /// "bad lower bound for {name}" (name-pool index)
    DimLo(u32),
    /// "bad upper bound for {name}"
    DimHi(u32),
}

/// One bytecode instruction. `u16` operands index the frame's register
/// file; `u32` operands index per-unit slot tables, pools, or the
/// machine's flat COMMON storage.
#[derive(Clone, Debug)]
pub enum Op {
    /// Statement boundary: bump the step counter (runaway guard).
    Step,
    Const {
        dst: u16,
        k: u32,
    },
    LoadLocal {
        dst: u16,
        slot: u32,
    },
    StoreLocal {
        slot: u32,
        src: u16,
    },
    LoadCommon {
        dst: u16,
        slot: u32,
    },
    StoreCommon {
        slot: u32,
        src: u16,
    },
    /// `n` integer subscript registers starting at `subs`.
    LoadElem {
        dst: u16,
        arr: u32,
        subs: u16,
        n: u8,
        name: u32,
        stmt: u32,
    },
    StoreElem {
        arr: u32,
        subs: u16,
        n: u8,
        src: u16,
        name: u32,
        stmt: u32,
    },
    /// Element access whose every subscript is a plain local scalar:
    /// `n` slot ids starting at `slots` in the unit's subscript-slot
    /// pool — no per-subscript register traffic.
    LoadElemS {
        dst: u16,
        arr: u32,
        slots: u32,
        n: u8,
        name: u32,
        stmt: u32,
    },
    StoreElemS {
        arr: u32,
        slots: u32,
        n: u8,
        src: u16,
        name: u32,
        stmt: u32,
    },
    /// Convert `src` in place via `Value::as_int` (reals truncate); on
    /// failure raise the message selected by `kind`.
    ToInt {
        src: u16,
        kind: ToIntKind,
    },
    Un {
        dst: u16,
        op: UnOp,
        src: u16,
    },
    Bin {
        dst: u16,
        op: BinOp,
        a: u16,
        b: u16,
    },
    /// Intrinsic over `n` contiguous argument registers.
    Intrin {
        dst: u16,
        name: u32,
        args: u16,
        n: u8,
    },
    CallFun {
        dst: u16,
        spec: u32,
    },
    CallSub {
        spec: u32,
    },
    /// Copy a ScalarRef result (stashed by the matching CallSub) back
    /// into a caller scalar.
    CopyOutVar {
        arg: u8,
        slot: u32,
        common: bool,
    },
    /// Same, into an array element whose subscripts were re-evaluated
    /// after the call (the interpreter's `store`).
    CopyOutElem {
        arg: u8,
        arr: u32,
        subs: u16,
        n: u8,
        name: u32,
        stmt: u32,
    },
    /// Pop the copy-out stash of the matching CallSub.
    EndCall,
    WriteOut {
        args: u16,
        n: u16,
    },
    ReadPop {
        dst: u16,
    },
    /// Source-level GOTO, resolved against enclosing block label maps.
    Jump {
        label: u32,
    },
    /// Internal forward branch (absolute pc within the unit).
    Br {
        pc: u32,
    },
    BrFalsy {
        src: u16,
        pc: u32,
    },
    /// `n` labels starting at `labels` in the label pool.
    ComputedGoto {
        src: u16,
        labels: u32,
        n: u16,
    },
    ArithIf {
        src: u16,
        neg: u32,
        zero: u32,
        pos: u32,
    },
    Ret,
    Halt,
    /// Execute a nested statement block (IF arm / ELSE body).
    Block {
        block: u32,
    },
    DoLoop {
        spec: u32,
    },
    /// Run the next `len` ops under the reduction lock with shadow
    /// tracking suspended — only when inside a parallel loop.
    Serialized {
        len: u32,
    },
    /// PARAMETER/DATA initializer: run the next `len` ops; on success
    /// store register `src` into `slot`; swallow runtime errors (the
    /// interpreter's `try_const`).
    TryInit {
        slot: u32,
        src: u16,
        len: u32,
    },
    /// Allocate a local array from `ndims` (lo,hi) integer register
    /// pairs starting at `dims`.
    AllocArr {
        arr: u32,
        dims: u16,
        ndims: u8,
    },
}

/// How an array slot is populated.
#[derive(Clone, Debug)]
pub enum ArraySpec {
    /// Index into the machine's flat COMMON array table.
    Common(u32),
    /// Bound from an array actual at call time.
    Formal,
    /// Allocated by the init prologue (`AllocArr`).
    Local { proto: Cell },
}

#[derive(Clone, Copy, Debug)]
pub enum FormalSpec {
    Scalar(u32),
    Array(u32),
}

/// A statement list: contiguous pc range plus its label map. Labels
/// resolve within the innermost enclosing block first, exactly like the
/// interpreter's `exec_block`.
#[derive(Clone, Debug, Default)]
pub struct BlockInfo {
    pub start: u32,
    pub end: u32,
    pub labels: Vec<(u32, u32)>,
}

impl BlockInfo {
    pub fn label_pc(&self, l: u32) -> Option<u32> {
        self.labels
            .iter()
            .find(|(lab, _)| *lab == l)
            .map(|(_, pc)| *pc)
    }
}

/// Everything the dispatcher needs to run one DO statement. Bound
/// registers are read once at loop entry, before the body clobbers the
/// register file.
#[derive(Clone, Debug)]
pub struct DoSpec {
    pub stmt: u32,
    pub var_slot: u32,
    pub lo: u16,
    pub hi: u16,
    pub step: Option<u16>,
    pub parallel: bool,
    pub body: u32,
    /// (scalar slot, reduction op) accumulators for parallel execution.
    pub scalar_reds: Vec<(u32, ped_analysis::reductions::ReduceOp)>,
    /// Array slots privatized per worker (proved dead after the loop).
    pub priv_arrays: Vec<u32>,
}

/// How one actual argument is passed (the interpreter's `Actual`).
#[derive(Clone, Debug)]
pub enum ArgSpec {
    Scalar(u16),
    /// Assignable scalar: copy-in register; copy-out via CopyOut ops.
    ScalarRefVar(u16),
    ScalarRefElem(u16),
    Array(u32),
}

#[derive(Clone, Debug)]
pub struct CallSpec {
    pub unit: u32,
    /// Call-site spelling, for error messages.
    pub name: String,
    pub args: Vec<ArgSpec>,
}

pub struct CompiledUnit {
    pub name: String,
    pub is_function: bool,
    pub result_slot: Option<u32>,
    pub nregs: u16,
    /// Typed zero per scalar slot (the interpreter's default for
    /// uninitialized loads); `len()` is the scalar slot count.
    pub scalar_zero: Vec<Value>,
    pub arrays: Vec<ArraySpec>,
    pub params: Vec<FormalSpec>,
    pub consts: Vec<Value>,
    pub code: Vec<Op>,
    pub blocks: Vec<BlockInfo>,
    /// Init prologue range within `code` (PARAMETER, DATA, local array
    /// allocation), executed linearly at frame creation.
    pub init: (u32, u32),
    pub body_block: u32,
    pub do_specs: Vec<DoSpec>,
    pub call_specs: Vec<CallSpec>,
    pub label_pool: Vec<u32>,
    /// Scalar-slot pool for `LoadElemS`/`StoreElemS` subscripts.
    pub sub_slots: Vec<u32>,
}

pub struct CompiledProgram {
    pub units: Vec<CompiledUnit>,
    pub main: usize,
    /// Typed zero per flat COMMON scalar slot.
    pub common_scalar_zero: Vec<Value>,
    /// (bounds, proto) per flat COMMON array slot.
    pub common_arrays: Vec<(Vec<(i64, i64)>, Cell)>,
    /// Interned name pool (array names, intrinsic spellings).
    pub names: Vec<String>,
}

/// Access-path classification of a name within one unit. The compiler
/// refuses programs where one name could reach two storages (the
/// interpreter's scalars-map shadowing quirks).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Class {
    Scalar(u32),
    ComScalar(u32),
    Array(u32),
}

struct ProgramContext<'p> {
    program: &'p Program,
    symtabs: HashMap<String, &'p SymbolTable>,
    unit_idx: HashMap<String, usize>,
    /// COMMON block name → members as (is_array, flat index), canonical
    /// layout from the first declaring unit.
    common_layout: HashMap<String, Vec<(bool, u32)>>,
    reductions: HashMap<StmtId, Vec<ped_analysis::reductions::Reduction>>,
    array_reduce_stmts: HashSet<StmtId>,
    private_arrays: HashMap<StmtId, Vec<String>>,
    names: RefCell<Vec<String>>,
    name_idx: RefCell<HashMap<String, u32>>,
}

impl<'p> ProgramContext<'p> {
    fn name_id(&self, n: &str) -> u32 {
        if let Some(&i) = self.name_idx.borrow().get(n) {
            return i;
        }
        let mut pool = self.names.borrow_mut();
        let i = pool.len() as u32;
        pool.push(n.to_string());
        self.name_idx.borrow_mut().insert(n.to_string(), i);
        i
    }
}

/// Compile a whole program, or explain why the tree-walk must run it.
pub fn compile(program: &Program) -> CResult<CompiledProgram> {
    let owned: Vec<(String, SymbolTable)> = program
        .units
        .iter()
        .map(|u| (u.name.to_ascii_uppercase(), SymbolTable::build(u)))
        .collect();
    compile_inner(program, &owned)
}

fn compile_inner(
    program: &Program,
    symtab_pairs: &[(String, SymbolTable)],
) -> CResult<CompiledProgram> {
    let symtabs: HashMap<String, &SymbolTable> =
        symtab_pairs.iter().map(|(n, st)| (n.clone(), st)).collect();
    let Some(main_unit) = program.main() else {
        return unsup("no main program unit");
    };
    if !main_unit.params.is_empty() {
        return unsup("main unit has parameters");
    }
    let mut unit_idx = HashMap::new();
    for (i, u) in program.units.iter().enumerate() {
        // The interpreter resolves calls case-insensitively against the
        // first matching unit; a duplicate would alias.
        if unit_idx.insert(u.name.to_ascii_uppercase(), i).is_some() {
            return unsup("duplicate unit name");
        }
    }
    let main = unit_idx[&main_unit.name.to_ascii_uppercase()];

    // COMMON layout: first declaring unit wins (Machine::new's walk).
    let mut common_layout: HashMap<String, Vec<(bool, u32)>> = HashMap::new();
    let mut common_scalar_zero = Vec::new();
    let mut common_arrays = Vec::new();
    for u in &program.units {
        let st = symtabs[&u.name.to_ascii_uppercase()];
        for d in &u.decls {
            if let Decl::Common { block, entities } = d {
                let bname = block.clone().unwrap_or_default();
                if common_layout.contains_key(&bname) {
                    continue;
                }
                let mut slots = Vec::new();
                for e in entities {
                    let sym = st.get(&e.name);
                    let ty = sym.map(|s| s.ty).unwrap_or(Type::Real);
                    let dims = sym.map(|s| s.dims.clone()).unwrap_or_default();
                    if dims.is_empty() {
                        let idx = common_scalar_zero.len() as u32;
                        common_scalar_zero.push(zero_of(ty));
                        slots.push((false, idx));
                    } else {
                        let bounds = match crate::rt::eval_dims(&dims, st) {
                            Ok(b) => b,
                            Err(RuntimeError(m)) => return unsup(m),
                        };
                        let idx = common_arrays.len() as u32;
                        common_arrays.push((bounds, proto_of(ty)));
                        slots.push((true, idx));
                    }
                }
                common_layout.insert(bname, slots);
            }
        }
    }

    // Parallel-execution facts, computed once. The tree-walk recomputes
    // these on every run — amortizing them is the VM's dominant speedup.
    let ped_analysis::doall::DoallFacts {
        reductions,
        array_reduce_stmts,
        private_arrays,
    } = ped_analysis::doall::doall_facts(
        program
            .units
            .iter()
            .map(|u| (u, symtabs[&u.name.to_ascii_uppercase()])),
    );

    let cx = ProgramContext {
        program,
        symtabs,
        unit_idx,
        common_layout,
        reductions,
        array_reduce_stmts,
        private_arrays,
        names: RefCell::new(Vec::new()),
        name_idx: RefCell::new(HashMap::new()),
    };

    let mut units = Vec::with_capacity(program.units.len());
    for u in &program.units {
        units.push(compile_unit(&cx, u)?);
    }
    Ok(CompiledProgram {
        units,
        main,
        common_scalar_zero,
        common_arrays,
        names: cx.names.into_inner(),
    })
}

fn compile_unit<'p>(cx: &ProgramContext<'p>, unit: &'p ProcUnit) -> CResult<CompiledUnit> {
    let st = cx.symtabs[&unit.name.to_ascii_uppercase()];
    let mut c = UnitCompiler {
        cx,
        unit,
        st,
        class: HashMap::new(),
        scalar_zero: Vec::new(),
        arrays: Vec::new(),
        consts: Vec::new(),
        const_idx: HashMap::new(),
        code: Vec::new(),
        blocks: Vec::new(),
        do_specs: Vec::new(),
        call_specs: Vec::new(),
        label_pool: Vec::new(),
        sub_slots: Vec::new(),
        queue: VecDeque::new(),
        rnext: 0,
        rmax: 0,
        cur_stmt: 0,
    };
    c.classify()?;
    let params: Vec<FormalSpec> = unit
        .params
        .iter()
        .map(|p| match c.class[p.as_str()] {
            Class::Array(a) => FormalSpec::Array(a),
            Class::Scalar(s) => FormalSpec::Scalar(s),
            Class::ComScalar(_) => unreachable!("classify rejects formal/COMMON aliases"),
        })
        .collect();
    c.emit_init()?;
    let init_end = c.code.len() as u32;
    let body_block = c.compile_block(&unit.body);
    c.drain_queue()?;
    let result_slot = match c.class.get(unit.name.to_ascii_uppercase().as_str()) {
        Some(Class::Scalar(s)) => Some(*s),
        _ => None,
    };
    Ok(CompiledUnit {
        name: unit.name.clone(),
        is_function: matches!(unit.kind, UnitKind::Function(_)),
        result_slot,
        nregs: c.rmax,
        scalar_zero: c.scalar_zero,
        arrays: c.arrays,
        params,
        consts: c.consts,
        code: c.code,
        blocks: c.blocks,
        init: (0, init_end),
        body_block,
        do_specs: c.do_specs,
        call_specs: c.call_specs,
        label_pool: c.label_pool,
        sub_slots: c.sub_slots,
    })
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum ConstKey {
    I(i64),
    R(u64),
    L(bool),
    S(String),
}

struct UnitCompiler<'p, 'c> {
    cx: &'c ProgramContext<'p>,
    unit: &'p ProcUnit,
    st: &'p SymbolTable,
    class: HashMap<String, Class>,
    scalar_zero: Vec<Value>,
    arrays: Vec<ArraySpec>,
    consts: Vec<Value>,
    const_idx: HashMap<ConstKey, u32>,
    code: Vec<Op>,
    blocks: Vec<BlockInfo>,
    do_specs: Vec<DoSpec>,
    call_specs: Vec<CallSpec>,
    label_pool: Vec<u32>,
    sub_slots: Vec<u32>,
    queue: VecDeque<(u32, &'p [Stmt])>,
    rnext: u16,
    rmax: u16,
    /// Id of the statement being compiled (trace attribution of loads).
    cur_stmt: u32,
}

impl<'p, 'c> UnitCompiler<'p, 'c> {
    /// Classify every name: COMMON scalar, array (common / formal /
    /// local), or local scalar.
    fn classify(&mut self) -> CResult<()> {
        // COMMON members take the canonical slot kind (frame_for binds
        // them by position against the first declaring unit's layout).
        for d in &self.unit.decls {
            if let Decl::Common { block, entities } = d {
                let bname = block.clone().unwrap_or_default();
                let slots = &self.cx.common_layout[&bname];
                if entities.len() > slots.len() {
                    return unsup("COMMON redeclared with more members");
                }
                for (i, e) in entities.iter().enumerate() {
                    let (is_array, flat) = slots[i];
                    let cls = if is_array {
                        let a = self.arrays.len() as u32;
                        self.arrays.push(ArraySpec::Common(flat));
                        Class::Array(a)
                    } else {
                        Class::ComScalar(flat)
                    };
                    if self.class.insert(e.name.clone(), cls).is_some() {
                        return unsup("name bound twice in COMMON");
                    }
                }
            }
        }
        for p in &self.unit.params {
            if self.class.contains_key(p.as_str()) {
                // Formal aliasing COMMON (or a duplicate formal): the
                // interpreter reads one storage and writes the other.
                return unsup("formal aliases another binding");
            }
            if self.st.get(p).map(|s| !s.dims.is_empty()).unwrap_or(false) {
                let a = self.arrays.len() as u32;
                self.arrays.push(ArraySpec::Formal);
                self.class.insert(p.clone(), Class::Array(a));
            } else {
                self.scalar_slot(p);
            }
        }
        for s in self.st.iter() {
            if !s.dims.is_empty()
                && s.storage != Storage::Common
                && !self.class.contains_key(s.name.as_str())
            {
                if is_intrinsic(&s.name)
                    || self.cx.unit_idx.contains_key(&s.name.to_ascii_uppercase())
                {
                    return unsup("array name shadows an intrinsic or unit");
                }
                let a = self.arrays.len() as u32;
                self.arrays.push(ArraySpec::Local {
                    proto: proto_of(s.ty),
                });
                self.class.insert(s.name.clone(), Class::Array(a));
            }
        }
        Ok(())
    }

    fn scalar_slot(&mut self, name: &str) -> u32 {
        if let Some(Class::Scalar(s)) = self.class.get(name) {
            return *s;
        }
        let slot = self.scalar_zero.len() as u32;
        let ty = self
            .st
            .get(name)
            .map(|s| s.ty)
            .unwrap_or_else(|| implicit_type(name));
        self.scalar_zero.push(zero_of(ty));
        self.class.insert(name.to_string(), Class::Scalar(slot));
        slot
    }

    fn class_of(&mut self, name: &str) -> Class {
        match self.class.get(name) {
            Some(c) => *c,
            None => Class::Scalar(self.scalar_slot(name)),
        }
    }

    fn kconst(&mut self, v: Value) -> u32 {
        let key = match &v {
            Value::Int(x) => ConstKey::I(*x),
            Value::Real(x) => ConstKey::R(x.to_bits()),
            Value::Logical(x) => ConstKey::L(*x),
            Value::Str(s) => ConstKey::S(s.clone()),
        };
        if let Some(&i) = self.const_idx.get(&key) {
            return i;
        }
        let i = self.consts.len() as u32;
        self.consts.push(v);
        self.const_idx.insert(key, i);
        i
    }

    fn ralloc(&mut self) -> CResult<u16> {
        let r = self.rnext;
        if r == u16::MAX {
            return unsup("register pressure");
        }
        self.keep(r);
        Ok(r)
    }

    /// Mark register `r` live: the next allocation starts above it.
    fn keep(&mut self, r: u16) {
        self.rnext = r + 1;
        if self.rnext > self.rmax {
            self.rmax = self.rnext;
        }
    }

    /// Initializer and dimension expressions must be side-effect free:
    /// the interpreter evaluates them during frame setup, where a user
    /// function call would bump the step counter or emit output. Local
    /// arrays are not yet allocated at that point either.
    fn init_safe(&self, e: &Expr) -> bool {
        let local_array = |n: &str| {
            matches!(self.class.get(n), Some(Class::Array(a))
                if matches!(self.arrays[*a as usize], ArraySpec::Local { .. }))
        };
        match e {
            Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) | Expr::Str(_) => true,
            Expr::Var(n) => !local_array(n),
            Expr::Index { name, subs } => {
                matches!(self.class.get(name.as_str()), Some(Class::Array(_)))
                    && !local_array(name)
                    && subs.iter().all(|s| self.init_safe(s))
            }
            Expr::Call { name, args } => {
                is_intrinsic(name) && args.iter().all(|a| self.init_safe(a))
            }
            Expr::Bin { l, r, .. } => self.init_safe(l) && self.init_safe(r),
            Expr::Un { e, .. } => self.init_safe(e),
        }
    }

    /// Frame-creation prologue: PARAMETER constants (symbol order), DATA
    /// initializers (declaration order), then local array allocation
    /// (symbol order) — `frame_for`'s exact sequence.
    fn emit_init(&mut self) -> CResult<()> {
        let mut inits: Vec<(String, &'p Expr)> = Vec::new();
        for s in self.st.iter() {
            if s.storage == Storage::Constant {
                if let Some(v) = s.value.as_ref() {
                    inits.push((s.name.clone(), v));
                }
            }
        }
        for d in &self.unit.decls {
            if let Decl::Data { bindings } = d {
                for (n, e) in bindings {
                    inits.push((n.clone(), e));
                }
            }
        }
        for (name, e) in inits {
            let slot = match self.class_of(&name) {
                Class::Scalar(s) => s,
                // PARAMETER/DATA on COMMON or array storage: the
                // interpreter inserts into the scalars map, shadowing
                // the real storage on loads but not on stores.
                _ => return unsup("initializer targets non-local storage"),
            };
            if !self.init_safe(e) {
                return unsup("initializer is not side-effect free");
            }
            self.rnext = 0;
            let at = self.code.len();
            self.code.push(Op::Step); // placeholder, patched below
            let src = self.expr(e)?;
            let len = (self.code.len() - at - 1) as u32;
            self.code[at] = Op::TryInit { slot, src, len };
        }
        // Local arrays, in symbol order; bounds may read formals and
        // PARAMETER values.
        let st = self.st;
        let local_arrays: Vec<(&'p str, &'p [DimBound])> = st
            .iter()
            .filter(|s| {
                !s.dims.is_empty()
                    && s.storage != Storage::Common
                    && !self.unit.params.iter().any(|p| p == &s.name)
            })
            .map(|s| (s.name.as_str(), s.dims.as_slice()))
            .collect();
        for (name, dims) in local_arrays {
            let Some(&Class::Array(aslot)) = self.class.get(name) else {
                return unsup("local array not classified");
            };
            if dims.len() > u8::MAX as usize {
                return unsup("array rank");
            }
            let nid = self.cx.name_id(name);
            self.rnext = 0;
            let base = self.rnext;
            for d in dims {
                if !self.init_safe(&d.lower) || !self.init_safe(&d.upper) {
                    return unsup("array bound is not side-effect free");
                }
                let lo = self.expr(&d.lower)?;
                self.code.push(Op::ToInt {
                    src: lo,
                    kind: ToIntKind::DimLo(nid),
                });
                let hi = self.expr(&d.upper)?;
                self.code.push(Op::ToInt {
                    src: hi,
                    kind: ToIntKind::DimHi(nid),
                });
                // expr() leaves its result in the first free register,
                // so the (lo,hi) pairs are contiguous from `base`.
                debug_assert_eq!(hi, lo + 1);
            }
            self.code.push(Op::AllocArr {
                arr: aslot,
                dims: base,
                ndims: dims.len() as u8,
            });
        }
        Ok(())
    }

    fn compile_block(&mut self, stmts: &'p [Stmt]) -> u32 {
        let bidx = self.blocks.len() as u32;
        self.blocks.push(BlockInfo::default());
        self.queue.push_back((bidx, stmts));
        bidx
    }

    /// Emit queued blocks FIFO so each block's code range is contiguous.
    fn drain_queue(&mut self) -> CResult<()> {
        while let Some((bidx, stmts)) = self.queue.pop_front() {
            let start = self.code.len() as u32;
            let mut labels: Vec<(u32, u32)> = Vec::new();
            for s in stmts {
                if let Some(l) = s.label {
                    // First occurrence wins (exec_block uses position).
                    if !labels.iter().any(|(lab, _)| *lab == l) {
                        labels.push((l, self.code.len() as u32));
                    }
                }
                self.rnext = 0;
                self.cur_stmt = s.id.0;
                self.code.push(Op::Step);
                self.stmt_body(s)?;
            }
            let end = self.code.len() as u32;
            self.blocks[bidx as usize] = BlockInfo { start, end, labels };
        }
        Ok(())
    }

    fn stmt_body(&mut self, s: &'p Stmt) -> CResult<()> {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                let serialize = self.cx.array_reduce_stmts.contains(&s.id);
                let at = self.code.len();
                if serialize {
                    self.code.push(Op::Step); // placeholder → Serialized
                }
                let src = self.expr(rhs)?;
                self.keep(src);
                self.store_lvalue(lhs, src, s.id.0)?;
                if serialize {
                    let len = (self.code.len() - at - 1) as u32;
                    self.code[at] = Op::Serialized { len };
                }
                Ok(())
            }
            StmtKind::Continue | StmtKind::Opaque(_) => Ok(()),
            StmtKind::Goto(l) => {
                self.code.push(Op::Jump { label: *l });
                Ok(())
            }
            StmtKind::ComputedGoto { labels, index } => {
                if labels.len() > u16::MAX as usize {
                    return unsup("computed GOTO label count");
                }
                let r = self.expr(index)?;
                self.code.push(Op::ToInt {
                    src: r,
                    kind: ToIntKind::GotoIndex,
                });
                let base = self.label_pool.len() as u32;
                self.label_pool.extend_from_slice(labels);
                self.code.push(Op::ComputedGoto {
                    src: r,
                    labels: base,
                    n: labels.len() as u16,
                });
                Ok(())
            }
            StmtKind::ArithIf {
                expr,
                neg,
                zero,
                pos,
            } => {
                let r = self.expr(expr)?;
                self.code.push(Op::ArithIf {
                    src: r,
                    neg: *neg,
                    zero: *zero,
                    pos: *pos,
                });
                Ok(())
            }
            StmtKind::Return => {
                self.code.push(Op::Ret);
                Ok(())
            }
            StmtKind::Stop => {
                self.code.push(Op::Halt);
                Ok(())
            }
            StmtKind::LogicalIf { cond, then } => {
                let r = self.expr(cond)?;
                let br = self.code.len();
                self.code.push(Op::BrFalsy { src: r, pc: 0 });
                // The nested statement is a full exec_stmt: it bumps the
                // step counter again.
                self.cur_stmt = then.id.0;
                self.code.push(Op::Step);
                self.stmt_body(then)?;
                let end = self.code.len() as u32;
                self.code[br] = Op::BrFalsy { src: r, pc: end };
                Ok(())
            }
            StmtKind::If { arms, else_body } => {
                let mut end_brs = Vec::new();
                for (cond, body) in arms {
                    self.rnext = 0;
                    let r = self.expr(cond)?;
                    let br = self.code.len();
                    self.code.push(Op::BrFalsy { src: r, pc: 0 });
                    let b = self.compile_block(body);
                    self.code.push(Op::Block { block: b });
                    end_brs.push(self.code.len());
                    self.code.push(Op::Br { pc: 0 });
                    let next = self.code.len() as u32;
                    self.code[br] = Op::BrFalsy { src: r, pc: next };
                }
                if let Some(body) = else_body {
                    let b = self.compile_block(body);
                    self.code.push(Op::Block { block: b });
                }
                let end = self.code.len() as u32;
                for at in end_brs {
                    self.code[at] = Op::Br { pc: end };
                }
                Ok(())
            }
            StmtKind::Write { items } => {
                if items.len() > u16::MAX as usize {
                    return unsup("WRITE item count");
                }
                let base = self.rnext;
                for (i, e) in items.iter().enumerate() {
                    let r = self.expr(e)?;
                    debug_assert_eq!(r, base + i as u16);
                    self.keep(r);
                }
                self.code.push(Op::WriteOut {
                    args: base,
                    n: items.len() as u16,
                });
                Ok(())
            }
            StmtKind::Read { items } => {
                for lv in items {
                    self.rnext = 0;
                    let dst = self.ralloc()?;
                    self.code.push(Op::ReadPop { dst });
                    self.store_lvalue(lv, dst, s.id.0)?;
                }
                Ok(())
            }
            StmtKind::Call { name, args } => self.call_sub(name, args, s.id.0),
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
                sched,
                ..
            } => {
                let var_slot = match self.class_of(var) {
                    Class::Scalar(slot) => slot,
                    // The interpreter writes the loop variable into the
                    // scalars map directly, shadowing COMMON storage.
                    _ => return unsup("DO variable is not a local scalar"),
                };
                let rlo = self.expr(lo)?;
                self.code.push(Op::ToInt {
                    src: rlo,
                    kind: ToIntKind::LoopBound,
                });
                self.keep(rlo);
                let rhi = self.expr(hi)?;
                self.code.push(Op::ToInt {
                    src: rhi,
                    kind: ToIntKind::LoopBound,
                });
                self.keep(rhi);
                let rstep = match step {
                    Some(e) => {
                        let r = self.expr(e)?;
                        self.code.push(Op::ToInt {
                            src: r,
                            kind: ToIntKind::LoopStep,
                        });
                        self.keep(r);
                        Some(r)
                    }
                    None => None,
                };
                let parallel = *sched == LoopSched::Parallel;
                let mut scalar_reds = Vec::new();
                let mut priv_arrays = Vec::new();
                if parallel {
                    let reds = self.cx.reductions.get(&s.id).cloned().unwrap_or_default();
                    for r in &reds {
                        if r.is_scalar() {
                            match self.class_of(&r.var) {
                                Class::Scalar(slot) => scalar_reds.push((slot, r.op)),
                                // Accumulator inserts would shadow
                                // COMMON storage in worker frames.
                                _ => return unsup("reduction over non-local scalar"),
                            }
                        }
                    }
                    if let Some(names) = self.cx.private_arrays.get(&s.id) {
                        for n in names {
                            if let Some(Class::Array(a)) = self.class.get(n.as_str()) {
                                priv_arrays.push(*a);
                            }
                        }
                    }
                }
                let body_block = self.compile_block(body);
                let spec = self.do_specs.len() as u32;
                self.do_specs.push(DoSpec {
                    stmt: s.id.0,
                    var_slot,
                    lo: rlo,
                    hi: rhi,
                    step: rstep,
                    parallel,
                    body: body_block,
                    scalar_reds,
                    priv_arrays,
                });
                self.code.push(Op::DoLoop { spec });
                Ok(())
            }
        }
    }

    fn store_lvalue(&mut self, lv: &'p LValue, src: u16, stmt: u32) -> CResult<()> {
        match lv {
            LValue::Var(n) => match self.class_of(n) {
                Class::Scalar(slot) => {
                    self.code.push(Op::StoreLocal { slot, src });
                    Ok(())
                }
                Class::ComScalar(slot) => {
                    self.code.push(Op::StoreCommon { slot, src });
                    Ok(())
                }
                Class::Array(_) => unsup("scalar store to array name"),
            },
            LValue::Elem { name, subs } => {
                let Class::Array(arr) = self.class_of(name) else {
                    // The interpreter evaluates the subscripts, then
                    // raises "{name} is not an array".
                    return unsup("element store to non-array");
                };
                if let Some((slots, n)) = self.slot_subs(subs) {
                    let nid = self.cx.name_id(name);
                    self.code.push(Op::StoreElemS {
                        arr,
                        slots,
                        n,
                        src,
                        name: nid,
                        stmt,
                    });
                    return Ok(());
                }
                let (base, n) = self.subs(subs)?;
                let nid = self.cx.name_id(name);
                self.code.push(Op::StoreElem {
                    arr,
                    subs: base,
                    n,
                    src,
                    name: nid,
                    stmt,
                });
                Ok(())
            }
        }
    }

    /// The all-plain-scalar subscript fast path: when every subscript
    /// is a local scalar variable, record the slot ids in the
    /// subscript pool and skip the per-subscript register loads
    /// entirely. Returns None when any subscript needs expression
    /// evaluation (or the rank exceeds the dispatcher's stack buffer).
    fn slot_subs(&mut self, subs: &'p [Expr]) -> Option<(u32, u8)> {
        if subs.is_empty() || subs.len() > 7 {
            return None;
        }
        let mut slots = Vec::with_capacity(subs.len());
        for e in subs {
            match e {
                Expr::Var(n) => match self.class_of(n) {
                    Class::Scalar(slot) => slots.push(slot),
                    _ => return None,
                },
                _ => return None,
            }
        }
        let base = self.sub_slots.len() as u32;
        self.sub_slots.extend(slots);
        Some((base, subs.len() as u8))
    }

    /// Compile subscripts into contiguous registers. The integer
    /// conversion (and its "non-integer subscript" error) is fused
    /// into the element ops' subscript gather — one dispatch per
    /// subscript instead of a trailing `ToInt` each.
    fn subs(&mut self, subs: &'p [Expr]) -> CResult<(u16, u8)> {
        if subs.len() > u8::MAX as usize {
            return unsup("subscript rank");
        }
        let base = self.rnext;
        for (i, e) in subs.iter().enumerate() {
            let r = self.expr(e)?;
            debug_assert_eq!(r, base + i as u16);
            self.keep(r);
        }
        Ok((base, subs.len() as u8))
    }

    /// Compile an expression. The result lands in the first register
    /// that was free on entry, and `rnext` is left at result+1.
    fn expr(&mut self, e: &'p Expr) -> CResult<u16> {
        match e {
            Expr::Int(v) => self.emit_const(Value::Int(*v)),
            Expr::Real(v) => self.emit_const(Value::Real(*v)),
            Expr::Logical(v) => self.emit_const(Value::Logical(*v)),
            Expr::Str(s) => self.emit_const(Value::Str(s.clone())),
            Expr::Var(n) => {
                let cls = self.class_of(n);
                let dst = self.ralloc()?;
                match cls {
                    Class::Scalar(slot) => self.code.push(Op::LoadLocal { dst, slot }),
                    Class::ComScalar(slot) => self.code.push(Op::LoadCommon { dst, slot }),
                    Class::Array(_) => return unsup("array name used as scalar"),
                }
                Ok(dst)
            }
            Expr::Index { name, subs } => match self.class.get(name.as_str()).copied() {
                Some(Class::Array(arr)) => {
                    if let Some((slots, n)) = self.slot_subs(subs) {
                        let nid = self.cx.name_id(name);
                        let dst = self.ralloc()?;
                        self.code.push(Op::LoadElemS {
                            dst,
                            arr,
                            slots,
                            n,
                            name: nid,
                            stmt: self.cur_stmt,
                        });
                        return Ok(dst);
                    }
                    let (base, n) = self.subs(subs)?;
                    let nid = self.cx.name_id(name);
                    self.code.push(Op::LoadElem {
                        dst: base,
                        arr,
                        subs: base,
                        n,
                        name: nid,
                        stmt: self.cur_stmt,
                    });
                    self.keep(base);
                    Ok(base)
                }
                _ => {
                    if is_intrinsic(name) {
                        self.intrin(name, subs)
                    } else {
                        self.call_fun(name, subs)
                    }
                }
            },
            Expr::Call { name, args } => {
                if is_intrinsic(name) {
                    self.intrin(name, args)
                } else {
                    self.call_fun(name, args)
                }
            }
            Expr::Un { op, e } => {
                let r = self.expr(e)?;
                self.code.push(Op::Un {
                    dst: r,
                    op: *op,
                    src: r,
                });
                Ok(r)
            }
            Expr::Bin { op, l, r } => {
                let a = self.expr(l)?;
                self.keep(a);
                let b = self.expr(r)?;
                self.code.push(Op::Bin {
                    dst: a,
                    op: *op,
                    a,
                    b,
                });
                self.keep(a);
                Ok(a)
            }
        }
    }

    fn emit_const(&mut self, v: Value) -> CResult<u16> {
        let k = self.kconst(v);
        let dst = self.ralloc()?;
        self.code.push(Op::Const { dst, k });
        Ok(dst)
    }

    fn intrin(&mut self, name: &str, args: &'p [Expr]) -> CResult<u16> {
        if args.len() > u8::MAX as usize {
            return unsup("intrinsic arity");
        }
        let base = self.rnext;
        for (i, a) in args.iter().enumerate() {
            let r = self.expr(a)?;
            debug_assert_eq!(r, base + i as u16);
            self.keep(r);
        }
        let nid = self.cx.name_id(name);
        self.code.push(Op::Intrin {
            dst: base,
            name: nid,
            args: base,
            n: args.len() as u8,
        });
        if self.rnext == base {
            // Zero-argument call still needs a destination register.
            let dst = self.ralloc()?;
            debug_assert_eq!(dst, base);
        }
        self.keep(base);
        Ok(base)
    }

    /// Prepare one actual (the interpreter's `prepare_actual`); for
    /// ScalarRef-Elem actuals also return the subscript expressions
    /// needed for copy-out re-evaluation.
    fn prepare_actual(&mut self, a: &'p Expr) -> CResult<(ArgSpec, Option<(&'p str, &'p [Expr])>)> {
        match a {
            Expr::Var(n) => match self.class_of(n) {
                Class::Array(slot) => Ok((ArgSpec::Array(slot), None)),
                Class::Scalar(slot) => {
                    let dst = self.ralloc()?;
                    self.code.push(Op::LoadLocal { dst, slot });
                    Ok((ArgSpec::ScalarRefVar(dst), None))
                }
                Class::ComScalar(slot) => {
                    let dst = self.ralloc()?;
                    self.code.push(Op::LoadCommon { dst, slot });
                    Ok((ArgSpec::ScalarRefVar(dst), None))
                }
            },
            Expr::Index { name, subs }
                if matches!(self.class.get(name.as_str()), Some(Class::Array(_))) =>
            {
                // Element by reference: the copy-in load records a
                // shadow read, as eval() does.
                let r = self.expr(a)?;
                Ok((ArgSpec::ScalarRefElem(r), Some((name.as_str(), subs))))
            }
            other => {
                let r = self.expr(other)?;
                Ok((ArgSpec::Scalar(r), None))
            }
        }
    }

    fn resolve_callee(&self, name: &str) -> CResult<u32> {
        match self.cx.unit_idx.get(&name.to_ascii_uppercase()) {
            Some(&i) => Ok(i as u32),
            // The interpreter raises "unknown subroutine/function" at
            // run time, before argument evaluation; fall back.
            None => unsup(format!("unknown callee {name}")),
        }
    }

    /// Reject calls whose arity or argument kinds the interpreter would
    /// fault on (or quirk through) at run time.
    fn check_args(
        &self,
        callee: u32,
        name: &str,
        specs: &[(ArgSpec, Option<(&str, &[Expr])>)],
    ) -> CResult<()> {
        let cu = &self.cx.program.units[callee as usize];
        if cu.params.len() != specs.len() {
            return unsup(format!("arity mismatch calling {name}"));
        }
        let cst = self.cx.symtabs[&cu.name.to_ascii_uppercase()];
        for (formal, (spec, _)) in cu.params.iter().zip(specs) {
            let formal_is_array = cst.get(formal).map(|s| !s.dims.is_empty()).unwrap_or(false);
            let actual_is_array = matches!(spec, ArgSpec::Array(_));
            if formal_is_array != actual_is_array {
                return unsup(format!("actual/formal kind mismatch calling {name}"));
            }
        }
        Ok(())
    }

    fn call_fun(&mut self, name: &str, args: &'p [Expr]) -> CResult<u16> {
        let callee = self.resolve_callee(name)?;
        if !matches!(
            self.cx.program.units[callee as usize].kind,
            UnitKind::Function(_)
        ) {
            // Interpreter: "{name} is not a function", raised at run
            // time before argument evaluation.
            return unsup(format!("{name} is not a function"));
        }
        if args.len() > u8::MAX as usize {
            return unsup("call arity");
        }
        let base = self.rnext;
        let mut specs = Vec::with_capacity(args.len());
        for a in args {
            specs.push(self.prepare_actual(a)?);
        }
        self.check_args(callee, name, &specs)?;
        let spec_idx = self.call_specs.len() as u32;
        self.call_specs.push(CallSpec {
            unit: callee,
            name: name.to_string(),
            args: specs.into_iter().map(|(s, _)| s).collect(),
        });
        let dst = if self.rnext > base {
            base
        } else {
            self.ralloc()?
        };
        self.code.push(Op::CallFun {
            dst,
            spec: spec_idx,
        });
        self.keep(dst);
        Ok(dst)
    }

    fn call_sub(&mut self, name: &str, args: &'p [Expr], stmt: u32) -> CResult<()> {
        let callee = self.resolve_callee(name)?;
        if args.len() > u8::MAX as usize {
            return unsup("call arity");
        }
        let mut specs = Vec::with_capacity(args.len());
        for a in args {
            specs.push(self.prepare_actual(a)?);
        }
        self.check_args(callee, name, &specs)?;
        let spec_idx = self.call_specs.len() as u32;
        self.call_specs.push(CallSpec {
            unit: callee,
            name: name.to_string(),
            args: specs.iter().map(|(s, _)| s.clone()).collect(),
        });
        self.code.push(Op::CallSub { spec: spec_idx });
        // Copy-outs in parameter order; Elem targets re-evaluate their
        // subscripts after the call, exactly like the interpreter's
        // post-call store().
        for (i, (spec, elem)) in specs.iter().enumerate() {
            match spec {
                ArgSpec::ScalarRefVar(_) => {
                    let Expr::Var(n) = &args[i] else {
                        return unsup("copy-out target mismatch");
                    };
                    match self.class_of(n) {
                        Class::Scalar(slot) => self.code.push(Op::CopyOutVar {
                            arg: i as u8,
                            slot,
                            common: false,
                        }),
                        Class::ComScalar(slot) => self.code.push(Op::CopyOutVar {
                            arg: i as u8,
                            slot,
                            common: true,
                        }),
                        Class::Array(_) => return unsup("copy-out to array name"),
                    }
                }
                ArgSpec::ScalarRefElem(_) => {
                    let Some((aname, subs)) = elem else {
                        return unsup("copy-out target mismatch");
                    };
                    let Class::Array(arr) = self.class_of(aname) else {
                        return unsup("copy-out to non-array");
                    };
                    let (sbase, n) = self.subs(subs)?;
                    let nid = self.cx.name_id(aname);
                    self.code.push(Op::CopyOutElem {
                        arg: i as u8,
                        arr,
                        subs: sbase,
                        n,
                        name: nid,
                        stmt,
                    });
                }
                ArgSpec::Scalar(_) | ArgSpec::Array(_) => {}
            }
        }
        self.code.push(Op::EndCall);
        Ok(())
    }
}

/// Process-wide compile cache keyed by program content (including
/// statement identities, which the bytecode embeds in loop-profile and
/// trace attribution).
static CACHE: OnceLock<Mutex<HashMap<u64, Result<Arc<CompiledProgram>, CompileError>>>> =
    OnceLock::new();

const CACHE_CAP: usize = 64;

fn walk_stmt_ids(stmts: &[Stmt], f: Fnv) -> Fnv {
    let mut f = f;
    for s in stmts {
        f = f.u64(s.id.0 as u64);
        if let StmtKind::LogicalIf { then, .. } = &s.kind {
            f = walk_stmt_ids(std::slice::from_ref(then), f);
        }
        for b in s.kind.blocks() {
            f = walk_stmt_ids(b, f);
        }
    }
    f
}

fn program_key(p: &Program) -> u64 {
    let mut f = Fnv::new().u64(p.units.len() as u64);
    for u in &p.units {
        f = f.str(&u.name).u64(unit_fingerprint(u));
        for prm in &u.params {
            f = f.str(prm);
        }
        f = f.u64(match u.kind {
            UnitKind::Program => 0,
            UnitKind::Subroutine => 1,
            UnitKind::Function(_) => 2,
        });
        f = walk_stmt_ids(&u.body, f);
    }
    f.done()
}

/// Compile through the process-wide cache. Returns the result plus the
/// nanoseconds spent compiling (0 on a cache hit). Failed compiles are
/// cached too, so uncompilable programs pay the probe only once.
pub fn compile_cached(p: &Program) -> (Result<Arc<CompiledProgram>, CompileError>, u64) {
    let key = program_key(p);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return (hit.clone(), 0);
    }
    let t0 = std::time::Instant::now();
    let r = compile(p).map(Arc::new);
    let ns = t0.elapsed().as_nanos() as u64;
    let mut map = cache.lock().unwrap();
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.insert(key, r.clone());
    (r, ns)
}
