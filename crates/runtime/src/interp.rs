//! The Fortran interpreter: sequential semantics plus parallel (DOALL)
//! loop execution over a scoped-thread worker pool.
//!
//! This crate is the reproduction's stand-in for the paper's target
//! machines (8-processor Alliant FX/8 / Cray Y-MP): a shared-memory
//! parallel executor for the programs PED parallelizes. A loop marked
//! [`LoopSched::Parallel`] partitions its iterations across
//! `RunOptions::workers` threads; scalars are privatized per worker with
//! last-iteration copy-out, recognized reductions are combined after the
//! join, and array-element reductions are serialized through a lock.

use crate::value::{ArrayObj, Cell, Value};
use crate::verify::Shadow;
use ped_fortran::ast::*;
use ped_fortran::symbols::{is_intrinsic, Storage, SymbolTable};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

// The run surface (options, outputs, errors) and all scalar semantics
// (arithmetic, intrinsics, reduction identities) are shared with the
// bytecode VM through `ped_vm::rt` — one source of truth keeps the two
// engines byte-identical.
pub use ped_vm::rt::{RunOptions, RunOutput, RunStats, RuntimeError};

use ped_vm::rt::{
    combine, err, eval_binop, eval_dims, eval_intrinsic, identity_of, proto_of, zero_of, RunResult,
};

/// Run a program's main unit with the tree-walking interpreter.
pub fn run(program: &Program, opts: RunOptions) -> RunResult<RunOutput> {
    let machine = Machine::new(program, opts)?;
    let main = program
        .main()
        .ok_or_else(|| RuntimeError("no main program unit".into()))?;
    let mut frame = machine.frame_for(main, Vec::new())?;
    let flow = machine.exec_block(&mut frame, &main.body, false)?;
    if let Flow::Jump(l) = flow {
        return err(format!("GOTO {l} jumped out of the program"));
    }
    let stats = RunStats {
        steps: machine.steps.load(Ordering::Relaxed),
        parallel_loops: machine.parallel_loops.load(Ordering::Relaxed),
        parallel_iterations: machine.parallel_iters.load(Ordering::Relaxed),
        loop_iterations: machine.loop_iters.lock().unwrap().clone(),
    };
    let races = machine.race_log.into_inner().unwrap();
    Ok(RunOutput {
        lines: machine.output.into_inner().unwrap(),
        stats,
        races,
    })
}

enum CommonSlot {
    Scalar(RwLock<Value>),
    Array(Arc<ArrayObj>),
}

/// How a value is passed to a CALL.
enum Actual {
    Scalar(Value),
    /// Scalar passed from an assignable location: (copy-in value,
    /// copy-out target in the caller).
    ScalarRef(Value, LValue),
    Array(Arc<ArrayObj>),
}

struct Machine<'p> {
    program: &'p Program,
    opts: RunOptions,
    symtabs: HashMap<String, SymbolTable>,
    commons: HashMap<String, Vec<(String, CommonSlot)>>,
    /// Reductions per parallel loop header (scalar and array).
    reductions: HashMap<StmtId, Vec<ped_analysis::reductions::Reduction>>,
    /// Statements that are array-element accumulations (serialized in
    /// parallel execution).
    array_reduce_stmts: HashSet<StmtId>,
    /// Per parallel-loop header: local arrays that are privatizable
    /// (each worker gets its own copy; copies are discarded — the
    /// analysis proved them dead after the loop).
    private_arrays: HashMap<StmtId, Vec<String>>,
    reduce_lock: Mutex<()>,
    output: Mutex<Vec<String>>,
    input: Mutex<VecDeque<Value>>,
    steps: AtomicU64,
    parallel_loops: AtomicU64,
    parallel_iters: AtomicU64,
    loop_iters: Mutex<HashMap<StmtId, u64>>,
    /// Current iteration of the loop under validation (i64::MIN = off).
    shadow_iter: std::sync::atomic::AtomicI64,
    shadow: Mutex<Shadow>,
    shadow_exempt: Mutex<std::collections::HashSet<usize>>,
    race_log: Mutex<Vec<String>>,
}

/// A procedure activation.
#[derive(Clone)]
struct Frame {
    unit: String,
    scalars: HashMap<String, Value>,
    arrays: HashMap<String, Arc<ArrayObj>>,
    /// Scalar name → (common block, slot index).
    common_scalars: HashMap<String, (String, usize)>,
}

enum Flow {
    Normal,
    Jump(u32),
    Ret,
    Stop,
}

impl<'p> Machine<'p> {
    fn new(program: &'p Program, opts: RunOptions) -> RunResult<Machine<'p>> {
        let symtabs: HashMap<String, SymbolTable> = program
            .units
            .iter()
            .map(|u| (u.name.to_ascii_uppercase(), SymbolTable::build(u)))
            .collect();
        // Build COMMON storage from the first unit declaring each block.
        let mut commons: HashMap<String, Vec<(String, CommonSlot)>> = HashMap::new();
        for u in &program.units {
            let st = &symtabs[&u.name.to_ascii_uppercase()];
            for d in &u.decls {
                if let Decl::Common { block, entities } = d {
                    let bname = block.clone().unwrap_or_default();
                    if commons.contains_key(&bname) {
                        continue;
                    }
                    let mut slots = Vec::new();
                    for e in entities {
                        let sym = st.get(&e.name);
                        let ty = sym.map(|s| s.ty).unwrap_or(Type::Real);
                        let dims = sym.map(|s| s.dims.clone()).unwrap_or_default();
                        if dims.is_empty() {
                            slots.push((
                                e.name.clone(),
                                CommonSlot::Scalar(RwLock::new(zero_of(ty))),
                            ));
                        } else {
                            let bounds = eval_dims(&dims, st)?;
                            slots.push((
                                e.name.clone(),
                                CommonSlot::Array(Arc::new(ArrayObj::new(bounds, proto_of(ty)))),
                            ));
                        }
                    }
                    commons.insert(bname, slots);
                }
            }
        }
        // Precompute reductions and privatizable arrays per loop for
        // parallel execution.
        let ped_analysis::doall::DoallFacts {
            reductions,
            array_reduce_stmts,
            private_arrays,
        } = ped_analysis::doall::doall_facts(
            program
                .units
                .iter()
                .map(|u| (u, &symtabs[&u.name.to_ascii_uppercase()])),
        );
        Ok(Machine {
            program,
            symtabs,
            commons,
            reductions,
            array_reduce_stmts,
            private_arrays,
            reduce_lock: Mutex::new(()),
            output: Mutex::new(Vec::new()),
            input: Mutex::new(opts.input.iter().cloned().collect()),
            steps: AtomicU64::new(0),
            parallel_loops: AtomicU64::new(0),
            parallel_iters: AtomicU64::new(0),
            loop_iters: Mutex::new(HashMap::new()),
            shadow_iter: std::sync::atomic::AtomicI64::new(i64::MIN),
            shadow: Mutex::new(Shadow::new()),
            shadow_exempt: Mutex::new(std::collections::HashSet::new()),
            race_log: Mutex::new(Vec::new()),
            opts,
        })
    }

    fn frame_for(&self, unit: &ProcUnit, actuals: Vec<Actual>) -> RunResult<Frame> {
        let st = &self.symtabs[&unit.name.to_ascii_uppercase()];
        let mut frame = Frame {
            unit: unit.name.to_ascii_uppercase(),
            scalars: HashMap::new(),
            arrays: HashMap::new(),
            common_scalars: HashMap::new(),
        };
        // Bind formals.
        if actuals.len() != unit.params.len() {
            return err(format!(
                "{}: expected {} argument(s), got {}",
                unit.name,
                unit.params.len(),
                actuals.len()
            ));
        }
        for (formal, actual) in unit.params.iter().zip(&actuals) {
            match actual {
                Actual::Scalar(v) | Actual::ScalarRef(v, _) => {
                    frame.scalars.insert(formal.clone(), v.clone());
                }
                Actual::Array(a) => {
                    frame.arrays.insert(formal.clone(), Arc::clone(a));
                }
            }
        }
        // Bind COMMON members.
        for d in &unit.decls {
            if let Decl::Common { block, entities } = d {
                let bname = block.clone().unwrap_or_default();
                let slots = &self.commons[&bname];
                for (i, e) in entities.iter().enumerate() {
                    match &slots[i].1 {
                        CommonSlot::Scalar(_) => {
                            frame
                                .common_scalars
                                .insert(e.name.clone(), (bname.clone(), i));
                        }
                        CommonSlot::Array(a) => {
                            frame.arrays.insert(e.name.clone(), Arc::clone(a));
                        }
                    }
                }
            }
        }
        // PARAMETER constants and DATA initializers.
        for s in st.iter() {
            if s.storage == Storage::Constant {
                if let Some(v) = s.value.as_ref() {
                    if let Some(val) = self.try_const(v, &frame) {
                        frame.scalars.insert(s.name.clone(), val);
                    }
                }
            }
        }
        for d in &unit.decls {
            if let Decl::Data { bindings } = d {
                for (n, e) in bindings {
                    if let Some(v) = self.try_const(e, &frame) {
                        frame.scalars.insert(n.clone(), v);
                    }
                }
            }
        }
        // Allocate local arrays (dims may reference formals/params).
        for s in st.iter() {
            if !s.dims.is_empty()
                && !frame.arrays.contains_key(&s.name)
                && s.storage != Storage::Common
            {
                let mut bounds = Vec::with_capacity(s.dims.len());
                for d in &s.dims {
                    let lo = self
                        .eval(&d.lower, &frame)?
                        .as_int()
                        .ok_or_else(|| RuntimeError(format!("bad lower bound for {}", s.name)))?;
                    let hi = self
                        .eval(&d.upper, &frame)?
                        .as_int()
                        .ok_or_else(|| RuntimeError(format!("bad upper bound for {}", s.name)))?;
                    bounds.push((lo, hi));
                }
                frame.arrays.insert(
                    s.name.clone(),
                    Arc::new(ArrayObj::new(bounds, proto_of(s.ty))),
                );
            }
        }
        Ok(frame)
    }

    fn try_const(&self, e: &Expr, frame: &Frame) -> Option<Value> {
        self.eval(e, frame).ok()
    }

    fn bump(&self) -> RunResult<()> {
        let s = self.steps.fetch_add(1, Ordering::Relaxed);
        if s >= self.opts.max_steps {
            return err("step limit exceeded");
        }
        Ok(())
    }

    // -- statement execution -------------------------------------------

    fn exec_block(&self, frame: &mut Frame, stmts: &[Stmt], in_parallel: bool) -> RunResult<Flow> {
        let mut i = 0usize;
        while i < stmts.len() {
            match self.exec_stmt(frame, &stmts[i], in_parallel)? {
                Flow::Normal => i += 1,
                Flow::Jump(l) => match stmts.iter().position(|s| s.label == Some(l)) {
                    Some(j) => i = j,
                    None => return Ok(Flow::Jump(l)),
                },
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&self, frame: &mut Frame, s: &Stmt, in_parallel: bool) -> RunResult<Flow> {
        self.bump()?;
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                let serialize = in_parallel && self.array_reduce_stmts.contains(&s.id);
                let _guard = serialize.then(|| self.reduce_lock.lock().unwrap());
                // Serialized accumulations are commutative and ordered by
                // the lock: exclude them from shadow conflict tracking.
                let saved = serialize.then(|| self.shadow_iter.swap(i64::MIN, Ordering::Relaxed));
                let v = self.eval(rhs, frame)?;
                let r = self.store(frame, lhs, v);
                if let Some(prev) = saved {
                    self.shadow_iter.store(prev, Ordering::Relaxed);
                }
                r?;
                Ok(Flow::Normal)
            }
            StmtKind::Continue | StmtKind::Opaque(_) => Ok(Flow::Normal),
            StmtKind::Goto(l) => Ok(Flow::Jump(*l)),
            StmtKind::ComputedGoto { labels, index } => {
                let i = self
                    .eval(index, frame)?
                    .as_int()
                    .ok_or_else(|| RuntimeError("computed GOTO index not integer".into()))?;
                if i >= 1 && (i as usize) <= labels.len() {
                    Ok(Flow::Jump(labels[(i - 1) as usize]))
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::ArithIf {
                expr,
                neg,
                zero,
                pos,
            } => {
                let v = self
                    .eval(expr, frame)?
                    .as_f64()
                    .ok_or_else(|| RuntimeError("arithmetic IF on non-numeric".into()))?;
                Ok(Flow::Jump(if v < 0.0 {
                    *neg
                } else if v == 0.0 {
                    *zero
                } else {
                    *pos
                }))
            }
            StmtKind::Return => Ok(Flow::Ret),
            StmtKind::Stop => Ok(Flow::Stop),
            StmtKind::LogicalIf { cond, then } => {
                if self.eval(cond, frame)?.truthy() {
                    self.exec_stmt(frame, then, in_parallel)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::If { arms, else_body } => {
                for (c, body) in arms {
                    if self.eval(c, frame)?.truthy() {
                        return self.exec_block(frame, body, in_parallel);
                    }
                }
                match else_body {
                    Some(b) => self.exec_block(frame, b, in_parallel),
                    None => Ok(Flow::Normal),
                }
            }
            StmtKind::Write { items } => {
                let mut parts = Vec::with_capacity(items.len());
                for e in items {
                    parts.push(self.eval(e, frame)?.to_string());
                }
                self.output.lock().unwrap().push(parts.join(" "));
                Ok(Flow::Normal)
            }
            StmtKind::Read { items } => {
                for lv in items {
                    let v = self
                        .input
                        .lock()
                        .unwrap()
                        .pop_front()
                        .ok_or_else(|| RuntimeError("READ past end of input".into()))?;
                    self.store(frame, lv, v)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Call { name, args } => {
                self.call_subroutine(frame, name, args, in_parallel)?;
                Ok(Flow::Normal)
            }
            StmtKind::Do { .. } => self.exec_do(frame, s, in_parallel),
        }
    }

    fn exec_do(&self, frame: &mut Frame, s: &Stmt, in_parallel: bool) -> RunResult<Flow> {
        let StmtKind::Do {
            var,
            lo,
            hi,
            step,
            body,
            sched,
            ..
        } = &s.kind
        else {
            return err("exec_do on non-DO");
        };
        let lo_v = self
            .eval(lo, frame)?
            .as_int()
            .ok_or_else(|| RuntimeError("non-integer loop bound".into()))?;
        let hi_v = self
            .eval(hi, frame)?
            .as_int()
            .ok_or_else(|| RuntimeError("non-integer loop bound".into()))?;
        let step_v = match step {
            Some(e) => self
                .eval(e, frame)?
                .as_int()
                .ok_or_else(|| RuntimeError("non-integer loop step".into()))?,
            None => 1,
        };
        if step_v == 0 {
            return err("zero loop step");
        }
        let mut trips = (hi_v - lo_v + step_v) / step_v;
        if trips < 0 {
            trips = 0;
        }
        if self.opts.one_trip_do && trips == 0 {
            trips = 1;
        }
        *self.loop_iters.lock().unwrap().entry(s.id).or_insert(0) += trips as u64;

        if *sched == LoopSched::Parallel && self.opts.validate_parallel && !in_parallel {
            return self.exec_do_validated(frame, s, lo_v, step_v, trips);
        }
        if *sched == LoopSched::Parallel && self.opts.workers > 1 && !in_parallel && trips > 1 {
            return self.exec_do_parallel(frame, s, lo_v, step_v, trips);
        }
        // Sequential execution.
        let mut iv = lo_v;
        for _ in 0..trips {
            frame.scalars.insert(var.clone(), Value::Int(iv));
            match self.exec_block(frame, body, in_parallel)? {
                Flow::Normal => {}
                Flow::Jump(l) => return Ok(Flow::Jump(l)), // jump out of the loop
                other => return Ok(other),
            }
            iv += step_v;
        }
        frame.scalars.insert(var.clone(), Value::Int(iv));
        Ok(Flow::Normal)
    }

    /// Deterministic DOALL validation: run iterations sequentially while
    /// the shadow tracker tags every array access with its iteration;
    /// cross-iteration conflicts (outside serialized reduction
    /// statements) are logged as races.
    fn exec_do_validated(
        &self,
        frame: &mut Frame,
        s: &Stmt,
        lo_v: i64,
        step_v: i64,
        trips: i64,
    ) -> RunResult<Flow> {
        let StmtKind::Do { var, body, .. } = &s.kind else {
            return err("not a DO");
        };
        self.parallel_loops.fetch_add(1, Ordering::Relaxed);
        self.parallel_iters
            .fetch_add(trips.max(0) as u64, Ordering::Relaxed);
        *self.shadow.lock().unwrap() = Shadow::new();
        // Privatized arrays get per-worker copies in real parallel
        // execution: cross-iteration accesses to them are not races.
        let exempt: std::collections::HashSet<usize> = self
            .private_arrays
            .get(&s.id)
            .map(|names| {
                names
                    .iter()
                    .filter_map(|n| frame.arrays.get(n).map(|a| Arc::as_ptr(a) as usize))
                    .collect()
            })
            .unwrap_or_default();
        *self.shadow_exempt.lock().unwrap() = exempt;
        let mut iv = lo_v;
        for k in 0..trips {
            self.shadow_iter.store(k, Ordering::Relaxed);
            frame.scalars.insert(var.clone(), Value::Int(iv));
            match self.exec_block(frame, body, true)? {
                Flow::Normal => {}
                other => {
                    self.shadow_iter.store(i64::MIN, Ordering::Relaxed);
                    return Ok(other);
                }
            }
            iv += step_v;
        }
        self.shadow_iter.store(i64::MIN, Ordering::Relaxed);
        frame.scalars.insert(var.clone(), Value::Int(iv));
        let shadow = std::mem::take(&mut *self.shadow.lock().unwrap());
        if !shadow.races.is_empty() {
            self.race_log.lock().unwrap().extend(shadow.races);
        }
        Ok(Flow::Normal)
    }

    fn shadow_record(&self, arr: &Arc<ArrayObj>, name: &str, subs: &[i64], write: bool) {
        let iter = self.shadow_iter.load(Ordering::Relaxed);
        if iter == i64::MIN {
            return;
        }
        if let Ok(flat) = arr.flat_index(subs) {
            let id = Arc::as_ptr(arr) as usize;
            if self.shadow_exempt.lock().unwrap().contains(&id) {
                return;
            }
            self.shadow
                .lock()
                .unwrap()
                .record(id, name, flat, iter, write);
        }
    }

    fn exec_do_parallel(
        &self,
        frame: &mut Frame,
        s: &Stmt,
        lo_v: i64,
        step_v: i64,
        trips: i64,
    ) -> RunResult<Flow> {
        let StmtKind::Do { var, body, .. } = &s.kind else {
            return err("not a DO");
        };
        self.parallel_loops.fetch_add(1, Ordering::Relaxed);
        self.parallel_iters
            .fetch_add(trips as u64, Ordering::Relaxed);
        let reds = self.reductions.get(&s.id).cloned().unwrap_or_default();
        let scalar_reds: Vec<&ped_analysis::reductions::Reduction> =
            reds.iter().filter(|r| r.is_scalar()).collect();
        let priv_arrays = self.private_arrays.get(&s.id).cloned().unwrap_or_default();
        // Chunk the iteration space.
        let workers = self.opts.workers.min(trips as usize).max(1);
        let chunk = (trips as usize).div_ceil(workers);
        let mut results: Vec<RunResult<Frame>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let start = w * chunk;
                let end = ((w + 1) * chunk).min(trips as usize);
                if start >= end {
                    break;
                }
                let mut wframe = frame.clone();
                // Privatize killed local arrays: each worker writes its
                // own copy (contents are dead after the loop).
                for name in &priv_arrays {
                    if let Some(orig) = wframe.arrays.get(name) {
                        let fresh =
                            Arc::new(ArrayObj::new(orig.dims.clone(), crate::value::Cell::R(0.0)));
                        fresh.restore(orig.snapshot());
                        wframe.arrays.insert(name.clone(), fresh);
                    }
                }
                // Initialize scalar reduction accumulators to identity.
                for r in &scalar_reds {
                    let current = wframe.scalars.get(&r.var).cloned();
                    wframe
                        .scalars
                        .insert(r.var.clone(), identity_of(r.op, current.as_ref()));
                }
                let var = var.clone();
                handles.push(scope.spawn(move || {
                    for k in start..end {
                        let iv = lo_v + (k as i64) * step_v;
                        wframe.scalars.insert(var.clone(), Value::Int(iv));
                        match self.exec_block(&mut wframe, body, true) {
                            Ok(Flow::Normal) => {}
                            Ok(_) => {
                                return Err(RuntimeError(
                                    "control flow escapes a parallel loop".into(),
                                ))
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(wframe)
                }));
            }
            for h in handles {
                results.push(h.join().expect("worker panicked"));
            }
        });
        let mut worker_frames = Vec::with_capacity(results.len());
        for r in results {
            worker_frames.push(r?);
        }
        // Combine scalar reductions: global = global ⊕ partials.
        for r in &scalar_reds {
            let mut acc = frame
                .scalars
                .get(&r.var)
                .cloned()
                .unwrap_or_else(|| identity_of(r.op, None));
            for wf in &worker_frames {
                if let Some(part) = wf.scalars.get(&r.var) {
                    acc = combine(r.op, &acc, part)?;
                }
            }
            frame.scalars.insert(r.var.clone(), acc);
        }
        // Last-iteration copy-out: adopt the final worker's scalars
        // (privatized values; reductions already merged above).
        if let Some(last) = worker_frames.last() {
            for (k, v) in &last.scalars {
                if scalar_reds.iter().any(|r| &r.var == k) {
                    continue;
                }
                frame.scalars.insert(k.clone(), v.clone());
            }
        }
        frame
            .scalars
            .insert(var.clone(), Value::Int(lo_v + trips * step_v));
        Ok(Flow::Normal)
    }

    fn call_subroutine(
        &self,
        frame: &mut Frame,
        name: &str,
        args: &[Expr],
        in_parallel: bool,
    ) -> RunResult<()> {
        let unit = self
            .program
            .unit(name)
            .ok_or_else(|| RuntimeError(format!("unknown subroutine {name}")))?;
        let mut actuals = Vec::with_capacity(args.len());
        for a in args {
            actuals.push(self.prepare_actual(frame, a)?);
        }
        let mut callee = self.frame_for(unit, actuals_clone(&actuals))?;
        let flow = self.exec_block(&mut callee, &unit.body, in_parallel)?;
        if let Flow::Jump(l) = flow {
            return err(format!("GOTO {l} escaped subroutine {name}"));
        }
        // Copy-out scalar reference arguments.
        for (formal, actual) in unit.params.iter().zip(&actuals) {
            if let Actual::ScalarRef(_, target) = actual {
                if let Some(v) = callee.scalars.get(formal) {
                    let v = v.clone();
                    self.store(frame, target, v)?;
                }
            }
        }
        Ok(())
    }

    fn prepare_actual(&self, frame: &Frame, a: &Expr) -> RunResult<Actual> {
        match a {
            Expr::Var(n) => {
                if let Some(arr) = frame.arrays.get(n) {
                    Ok(Actual::Array(Arc::clone(arr)))
                } else {
                    let v = self.load_scalar(frame, n)?;
                    Ok(Actual::ScalarRef(v, LValue::Var(n.clone())))
                }
            }
            Expr::Index { name, subs } if frame.arrays.contains_key(name) => {
                // Array element passed by reference: copy-in/copy-out of
                // the single element (array-section aliasing unsupported).
                let v = self.eval(a, frame)?;
                Ok(Actual::ScalarRef(
                    v,
                    LValue::Elem {
                        name: name.clone(),
                        subs: subs.clone(),
                    },
                ))
            }
            other => Ok(Actual::Scalar(self.eval(other, frame)?)),
        }
    }

    // -- expression evaluation -------------------------------------------

    fn load_scalar(&self, frame: &Frame, name: &str) -> RunResult<Value> {
        if let Some(v) = frame.scalars.get(name) {
            return Ok(v.clone());
        }
        if let Some((block, idx)) = frame.common_scalars.get(name) {
            if let CommonSlot::Scalar(s) = &self.commons[block][*idx].1 {
                return Ok(s.read().unwrap().clone());
            }
        }
        // Uninitialized: Fortran leaves this undefined; default to a
        // typed zero for robustness (matches most compilers' -zero).
        let st = &self.symtabs[&frame.unit];
        let ty = st
            .get(name)
            .map(|s| s.ty)
            .unwrap_or_else(|| ped_fortran::symbols::implicit_type(name));
        Ok(zero_of(ty))
    }

    fn store(&self, frame: &mut Frame, lv: &LValue, v: Value) -> RunResult<()> {
        match lv {
            LValue::Var(n) => {
                if let Some((block, idx)) = frame.common_scalars.get(n) {
                    if let CommonSlot::Scalar(s) = &self.commons[block][*idx].1 {
                        *s.write().unwrap() = v;
                        return Ok(());
                    }
                }
                frame.scalars.insert(n.clone(), v);
                Ok(())
            }
            LValue::Elem { name, subs } => {
                let idx = self.eval_subs(frame, subs)?;
                let arr = frame
                    .arrays
                    .get(name)
                    .ok_or_else(|| RuntimeError(format!("{name} is not an array")))?;
                self.shadow_record(arr, name, &idx, true);
                let cell = Cell::from_value(&v)
                    .ok_or_else(|| RuntimeError("cannot store string in array".into()))?;
                arr.set(&idx, cell).map_err(RuntimeError)
            }
        }
    }

    fn eval_subs(&self, frame: &Frame, subs: &[Expr]) -> RunResult<Vec<i64>> {
        subs.iter()
            .map(|e| {
                self.eval(e, frame)?
                    .as_int()
                    .ok_or_else(|| RuntimeError("non-integer subscript".into()))
            })
            .collect()
    }

    fn eval(&self, e: &Expr, frame: &Frame) -> RunResult<Value> {
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Real(v) => Ok(Value::Real(*v)),
            Expr::Logical(v) => Ok(Value::Logical(*v)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Var(n) => self.load_scalar(frame, n),
            Expr::Index { name, subs } => {
                if let Some(arr) = frame.arrays.get(name) {
                    let idx = self.eval_subs(frame, subs)?;
                    self.shadow_record(arr, name, &idx, false);
                    return arr.get(&idx).map(Cell::to_value).map_err(RuntimeError);
                }
                if is_intrinsic(name) {
                    let args: Vec<Value> = subs
                        .iter()
                        .map(|a| self.eval(a, frame))
                        .collect::<Result<_, _>>()?;
                    return eval_intrinsic(name, &args);
                }
                self.call_function(frame, name, subs)
            }
            Expr::Call { name, args } => {
                if is_intrinsic(name) {
                    let vals: Vec<Value> = args
                        .iter()
                        .map(|a| self.eval(a, frame))
                        .collect::<Result<_, _>>()?;
                    return eval_intrinsic(name, &vals);
                }
                self.call_function(frame, name, args)
            }
            Expr::Un { op, e } => {
                let v = self.eval(e, frame)?;
                match (op, v) {
                    (UnOp::Neg, Value::Int(x)) => Ok(Value::Int(-x)),
                    (UnOp::Neg, Value::Real(x)) => Ok(Value::Real(-x)),
                    (UnOp::Plus, v) => Ok(v),
                    (UnOp::Not, Value::Logical(b)) => Ok(Value::Logical(!b)),
                    (op, v) => err(format!("bad operand {v:?} for {op:?}")),
                }
            }
            Expr::Bin { op, l, r } => {
                let a = self.eval(l, frame)?;
                let b = self.eval(r, frame)?;
                eval_binop(*op, a, b)
            }
        }
    }

    fn call_function(&self, frame: &Frame, name: &str, args: &[Expr]) -> RunResult<Value> {
        let unit = self
            .program
            .unit(name)
            .ok_or_else(|| RuntimeError(format!("unknown function {name}")))?;
        if !matches!(unit.kind, UnitKind::Function(_)) {
            return err(format!("{name} is not a function"));
        }
        let mut actuals = Vec::with_capacity(args.len());
        for a in args {
            actuals.push(self.prepare_actual(frame, a)?);
        }
        let mut callee = self.frame_for(unit, actuals)?;
        let flow = self.exec_block(&mut callee, &unit.body, false)?;
        if let Flow::Jump(l) = flow {
            return err(format!("GOTO {l} escaped function {name}"));
        }
        callee
            .scalars
            .get(&unit.name.to_ascii_uppercase())
            .or_else(|| callee.scalars.get(&unit.name))
            .cloned()
            .ok_or_else(|| RuntimeError(format!("function {name} did not set a result")))
    }
}

fn actuals_clone(actuals: &[Actual]) -> Vec<Actual> {
    actuals
        .iter()
        .map(|a| match a {
            Actual::Scalar(v) => Actual::Scalar(v.clone()),
            Actual::ScalarRef(v, t) => Actual::ScalarRef(v.clone(), t.clone()),
            Actual::Array(h) => Actual::Array(Arc::clone(h)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    fn run_src(src: &str) -> RunOutput {
        run(&parse_ok(src), RunOptions::default()).unwrap()
    }

    #[test]
    fn arithmetic_and_write() {
        let out =
            run_src("      X = 2.0\n      Y = X ** 2 + 1.0\n      WRITE (*,*) Y\n      END\n");
        assert_eq!(out.lines, ["5.0"]);
    }

    #[test]
    fn do_loop_sums() {
        let out = run_src("      S = 0.0\n      DO 10 I = 1, 10\n      S = S + I\n   10 CONTINUE\n      WRITE (*,*) S\n      END\n");
        assert_eq!(out.lines, ["55.0"]);
    }

    #[test]
    fn zero_trip_loop_skipped() {
        let out = run_src("      K = 0\n      DO 10 I = 5, 1\n      K = K + 1\n   10 CONTINUE\n      WRITE (*,*) K\n      END\n");
        assert_eq!(out.lines, ["0"]);
    }

    #[test]
    fn one_trip_dialect_option() {
        let p = parse_ok("      K = 0\n      DO 10 I = 5, 1\n      K = K + 1\n   10 CONTINUE\n      WRITE (*,*) K\n      END\n");
        let out = run(
            &p,
            RunOptions {
                one_trip_do: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.lines, ["1"]);
    }

    #[test]
    fn arrays_and_subscripts() {
        let out = run_src("      REAL A(10)\n      DO 10 I = 1, 10\n      A(I) = I * 2\n   10 CONTINUE\n      WRITE (*,*) A(1), A(10)\n      END\n");
        assert_eq!(out.lines, ["2.0 20.0"]);
    }

    #[test]
    fn goto_and_arith_if() {
        let src = "      X = -1.0\n      IF (X) 10, 20, 30\n   10 WRITE (*,*) 'NEG'\n      GOTO 40\n   20 WRITE (*,*) 'ZERO'\n      GOTO 40\n   30 WRITE (*,*) 'POS'\n   40 CONTINUE\n      END\n";
        let out = run_src(src);
        assert_eq!(out.lines, ["NEG"]);
    }

    #[test]
    fn block_if_and_logical_ops() {
        let src = "      X = 3.0\n      IF (X .GT. 2.0 .AND. X .LT. 4.0) THEN\n      WRITE (*,*) 'IN'\n      ELSE\n      WRITE (*,*) 'OUT'\n      END IF\n      END\n";
        assert_eq!(run_src(src).lines, ["IN"]);
    }

    #[test]
    fn subroutine_call_with_array_and_copy_out() {
        let src = "      REAL X(5)\n      N = 5\n      CALL FILL(X, N, T)\n      WRITE (*,*) X(3), T\n      END\n      SUBROUTINE FILL(A, N, T)\n      REAL A(N)\n      DO 10 I = 1, N\n      A(I) = I\n   10 CONTINUE\n      T = A(N)\n      RETURN\n      END\n";
        assert_eq!(run_src(src).lines, ["3.0 5.0"]);
    }

    #[test]
    fn function_call() {
        let src = "      Y = TWICE(3.0) + 1.0\n      WRITE (*,*) Y\n      END\n      REAL FUNCTION TWICE(X)\n      TWICE = 2.0 * X\n      RETURN\n      END\n";
        assert_eq!(run_src(src).lines, ["7.0"]);
    }

    #[test]
    fn common_blocks_shared() {
        let src = "      COMMON /G/ N, H(10)\n      N = 4\n      H(2) = 7.0\n      CALL SHOW\n      END\n      SUBROUTINE SHOW\n      COMMON /G/ N, H(10)\n      WRITE (*,*) N, H(2)\n      RETURN\n      END\n";
        assert_eq!(run_src(src).lines, ["4 7.0"]);
    }

    #[test]
    fn read_consumes_input() {
        let p = parse_ok("      READ (*,*) N, X\n      WRITE (*,*) N + 1, X * 2.0\n      END\n");
        let out = run(
            &p,
            RunOptions {
                input: vec![Value::Int(4), Value::Real(1.5)],
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.lines, ["5 3.0"]);
    }

    #[test]
    fn intrinsics() {
        let src = "      WRITE (*,*) SQRT(9.0), MAX(2, 7), MIN(2.0, 7.0), MOD(10, 3), ABS(-2.5)\n      END\n";
        assert_eq!(run_src(src).lines, ["3.0 7 2.0 1 2.5"]);
    }

    #[test]
    fn parameter_constants() {
        let src = "      PARAMETER (N = 5)\n      REAL A(N)\n      A(N) = 1.0\n      WRITE (*,*) A(N), N\n      END\n";
        assert_eq!(run_src(src).lines, ["1.0 5"]);
    }

    #[test]
    fn parallel_loop_matches_sequential() {
        let src = "      REAL A(1000), B(1000)\n      DO 5 I = 1, 1000\n      B(I) = I\n    5 CONTINUE\n      DO 10 I = 1, 1000\n      A(I) = B(I) * 2.0 + 1.0\n   10 CONTINUE\n      S = 0.0\n      DO 20 I = 1, 1000\n      S = S + A(I)\n   20 CONTINUE\n      WRITE (*,*) S\n      END\n";
        let seq = run_src(src);
        // Mark the middle loop parallel.
        let mut p = parse_ok(src);
        mark_parallel(&mut p, 1);
        let par = run(
            &p,
            RunOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.lines, par.lines);
        assert_eq!(par.stats.parallel_loops, 1);
        assert_eq!(par.stats.parallel_iterations, 1000);
    }

    #[test]
    fn parallel_scalar_reduction_correct() {
        let src = "      REAL A(100)\n      DO 5 I = 1, 100\n      A(I) = I\n    5 CONTINUE\n      S = 0.0\n      DO 10 I = 1, 100\n      S = S + A(I)\n   10 CONTINUE\n      WRITE (*,*) S\n      END\n";
        let mut p = parse_ok(src);
        mark_parallel(&mut p, 1);
        let out = run(
            &p,
            RunOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.lines, ["5050.0"]);
    }

    #[test]
    fn parallel_array_reduction_serialized() {
        // Histogram accumulation: scatter adds into overlapping elements.
        let src = "      REAL F(10)\n      INTEGER IX(100)\n      DO 5 I = 1, 100\n      IX(I) = MOD(I, 10) + 1\n    5 CONTINUE\n      DO 10 I = 1, 100\n      F(IX(I)) = F(IX(I)) + 1.0\n   10 CONTINUE\n      S = 0.0\n      DO 20 I = 1, 10\n      S = S + F(I)\n   20 CONTINUE\n      WRITE (*,*) S\n      END\n";
        let mut p = parse_ok(src);
        mark_parallel(&mut p, 1);
        let out = run(
            &p,
            RunOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.lines, ["100.0"]);
    }

    #[test]
    fn parallel_private_scalar_last_value() {
        let src = "      REAL A(100), B(100)\n      DO 10 I = 1, 100\n      T = I * 1.0\n      B(I) = T\n   10 CONTINUE\n      WRITE (*,*) T, B(50)\n      END\n";
        let seq = run_src(src);
        let mut p = parse_ok(src);
        mark_parallel(&mut p, 0);
        let par = run(
            &p,
            RunOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.lines, par.lines);
    }

    #[test]
    fn max_reduction_parallel() {
        let src = "      REAL A(100)\n      DO 5 I = 1, 100\n      A(I) = MOD(I * 37, 101)\n    5 CONTINUE\n      X = 0.0\n      DO 10 I = 1, 100\n      X = MAX(X, A(I))\n   10 CONTINUE\n      WRITE (*,*) X\n      END\n";
        let seq = run_src(src);
        let mut p = parse_ok(src);
        mark_parallel(&mut p, 1);
        let par = run(
            &p,
            RunOptions {
                workers: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.lines, par.lines);
    }

    #[test]
    fn validator_passes_clean_doall() {
        let src = "      REAL A(100), B(100)\n      DO 10 I = 1, 100\n      A(I) = B(I) + 1.0\n   10 CONTINUE\n      END\n";
        let mut p = parse_ok(src);
        mark_parallel(&mut p, 0);
        let out = run(
            &p,
            RunOptions {
                validate_parallel: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.races.is_empty(), "{:?}", out.races);
    }

    #[test]
    fn validator_catches_miscertified_loop() {
        // A recurrence wrongly marked parallel: the checker must flag it.
        let src = "      REAL A(100)\n      DO 10 I = 2, 100\n      A(I) = A(I-1) + 1.0\n   10 CONTINUE\n      END\n";
        let mut p = parse_ok(src);
        mark_parallel(&mut p, 0);
        let out = run(
            &p,
            RunOptions {
                validate_parallel: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!out.races.is_empty());
        assert!(out.races[0].contains("A["), "{}", out.races[0]);
    }

    #[test]
    fn validator_tolerates_serialized_reductions() {
        let src = "      REAL F(10)\n      INTEGER IX(100)\n      DO 5 I = 1, 100\n      IX(I) = MOD(I, 10) + 1\n    5 CONTINUE\n      DO 10 I = 1, 100\n      F(IX(I)) = F(IX(I)) + 1.0\n   10 CONTINUE\n      END\n";
        let mut p = parse_ok(src);
        mark_parallel(&mut p, 1);
        let out = run(
            &p,
            RunOptions {
                validate_parallel: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.races.is_empty(), "{:?}", out.races);
    }

    #[test]
    fn step_limit_guards_runaway() {
        let src = "   10 CONTINUE\n      GOTO 10\n      END\n";
        let p = parse_ok(src);
        let r = run(
            &p,
            RunOptions {
                max_steps: 1000,
                ..Default::default()
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn loop_profile_collected() {
        let src = "      DO 10 I = 1, 7\n      DO 20 J = 1, 3\n      X = 1.0\n   20 CONTINUE\n   10 CONTINUE\n      END\n";
        let out = run_src(src);
        let mut counts: Vec<u64> = out.stats.loop_iterations.values().copied().collect();
        counts.sort();
        assert_eq!(counts, [7, 21]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let src = "      REAL A(5)\n      A(6) = 1.0\n      END\n";
        let p = parse_ok(src);
        assert!(run(&p, RunOptions::default()).is_err());
    }

    /// Mark the nth top-level loop of MAIN parallel.
    fn mark_parallel(p: &mut Program, n: usize) {
        let mut count = 0;
        for s in p.units[0].body.iter_mut() {
            if let StmtKind::Do { sched, .. } = &mut s.kind {
                if count == n {
                    *sched = LoopSched::Parallel;
                    return;
                }
                count += 1;
            }
        }
        panic!("loop {n} not found");
    }
}
