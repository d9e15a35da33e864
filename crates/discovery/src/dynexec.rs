//! Concrete (dynamic) replay of a C-minus program's I/O.
//!
//! A small tree-walking interpreter that executes an entry function under
//! concrete integer parameter bindings and records every I/O operation:
//! per-site operation counts, bytes moved, request sizes and file
//! offsets. This is the *ground truth* the static workload model
//! ([`tunio_analysis::iomodel`]) is scored against in [`crate::accuracy`].
//!
//! The interpreter deliberately models externs with the **same
//! convention** the abstract interpreter uses (`alloc*` returns a fresh
//! buffer of `arg0` elements, `rand*` returns an unpredictable value —
//! here a deterministic splitmix64 stream — any other unknown extern
//! returns `0` and passes its first pointer argument through), so any
//! disagreement between the two paths is the analysis being *imprecise*,
//! never the two sides speaking different languages.

use std::collections::BTreeMap;

use tunio_analysis::interp::{elem_size_of_type, handle_api, is_alloc_fn, is_rand_fn};
use tunio_analysis::iomodel::{api_of, Direction, IoApi};
use tunio_cminus::ast::{Block, Expr, Function, Program, Stmt, StmtId, StmtKind};

/// Statement-execution budget; replays beyond it are truncated.
const MAX_STEPS: u64 = 10_000_000;

/// Call-depth budget for defined-function recursion.
const MAX_DEPTH: usize = 64;

/// Observed behaviour of one I/O call site during a replay.
#[derive(Debug, Clone)]
pub struct SiteObs {
    /// The call statement.
    pub stmt: StmtId,
    /// Callee name.
    pub call: String,
    /// Data direction.
    pub dir: Direction,
    /// Operations executed.
    pub ops: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Request size of each operation, in order.
    pub req_sizes: Vec<u64>,
    /// File offset of each operation, in order.
    pub offsets: Vec<i64>,
    /// Whether the call is collective-capable.
    pub collective: bool,
    /// Whether any operation followed an explicit seek.
    pub seeked: bool,
}

impl SiteObs {
    /// Classify the observed offset sequence: `"collective"`,
    /// `"sequential"`, `"strided"` or `"random"` — the same vocabulary
    /// [`tunio_analysis::iomodel::PredPattern::label`] uses.
    pub fn observed_pattern(&self) -> &'static str {
        if self.collective {
            return "collective";
        }
        if self.offsets.len() < 2 {
            return "sequential";
        }
        let deltas: Vec<i64> = self.offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let first = deltas[0];
        if deltas.iter().any(|d| *d != first) {
            return "random";
        }
        let req = self.req_sizes.first().copied().unwrap_or(0) as i64;
        if first == req || !self.seeked {
            "sequential"
        } else {
            "strided"
        }
    }
}

/// Everything observed while replaying one entry function.
#[derive(Debug, Clone)]
pub struct DynTrace {
    /// Entry function replayed.
    pub entry: String,
    /// Concrete parameter bindings used.
    pub bindings: BTreeMap<String, i64>,
    /// Per-site observations, keyed by call statement.
    pub sites: BTreeMap<StmtId, SiteObs>,
    /// Total data bytes moved (reads + writes).
    pub total_bytes: u64,
    /// Metadata operations executed.
    pub meta_ops: u64,
    /// Logging operations executed.
    pub logging_ops: u64,
    /// Statements executed.
    pub steps: u64,
    /// Whether the step budget truncated the replay.
    pub truncated: bool,
}

#[derive(Debug, Clone, Default)]
struct CVal {
    num: i64,
    buf: Option<usize>,
    handle: Option<usize>,
}

impl CVal {
    fn num(n: i64) -> CVal {
        CVal {
            num: n,
            ..CVal::default()
        }
    }
}

struct BufferRt {
    bytes: u64,
}

struct HandleRt {
    cursor: i64,
    seeked: bool,
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(CVal),
}

struct Exec<'p> {
    prog: &'p Program,
    buffers: Vec<BufferRt>,
    handles: Vec<HandleRt>,
    trace: DynTrace,
    rng: u64,
    /// Statement whose expression is currently being evaluated — the
    /// site id data operations are attributed to.
    current_stmt: StmtId,
}

/// Deterministic splitmix64 step (the interpreter's `rand*`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<'p> Exec<'p> {
    fn function(&self, name: &str) -> Option<&'p Function> {
        self.prog.functions.iter().find(|f| f.name == name)
    }

    fn step(&mut self) -> bool {
        self.trace.steps += 1;
        if self.trace.steps > MAX_STEPS {
            self.trace.truncated = true;
            return false;
        }
        true
    }

    fn eval(&mut self, expr: &Expr, env: &mut BTreeMap<String, CVal>, depth: usize) -> CVal {
        match expr {
            Expr::Int(n) => CVal::num(*n),
            Expr::Float(text) => CVal::num(text.parse::<f64>().unwrap_or(0.0) as i64),
            Expr::Str(_) | Expr::Char(_) => CVal::num(0),
            Expr::Ident(name) => env.get(name).cloned().unwrap_or_default(),
            Expr::Call { name, args } => self.call(name, args, env, depth),
            Expr::Binary { op, lhs, rhs } => {
                if op == "&&" {
                    let l = self.eval(lhs, env, depth);
                    if l.num == 0 {
                        return CVal::num(0);
                    }
                    let r = self.eval(rhs, env, depth);
                    return CVal::num((r.num != 0) as i64);
                }
                if op == "||" {
                    let l = self.eval(lhs, env, depth);
                    if l.num != 0 {
                        return CVal::num(1);
                    }
                    let r = self.eval(rhs, env, depth);
                    return CVal::num((r.num != 0) as i64);
                }
                let l = self.eval(lhs, env, depth);
                let r = self.eval(rhs, env, depth);
                let n = match op.as_str() {
                    "+" => l.num.wrapping_add(r.num),
                    "-" => l.num.wrapping_sub(r.num),
                    "*" => l.num.wrapping_mul(r.num),
                    "/" => {
                        if r.num == 0 {
                            0
                        } else {
                            l.num.wrapping_div(r.num)
                        }
                    }
                    "%" => {
                        if r.num == 0 {
                            0
                        } else {
                            l.num.wrapping_rem(r.num)
                        }
                    }
                    "<" => (l.num < r.num) as i64,
                    "<=" => (l.num <= r.num) as i64,
                    ">" => (l.num > r.num) as i64,
                    ">=" => (l.num >= r.num) as i64,
                    "==" => (l.num == r.num) as i64,
                    "!=" => (l.num != r.num) as i64,
                    _ => 0,
                };
                CVal {
                    num: n,
                    // Pointer arithmetic keeps the buffer identity.
                    buf: l.buf.or(r.buf),
                    handle: l.handle.or(r.handle),
                }
            }
            Expr::Unary { op, operand } => match op.as_str() {
                "-" => {
                    let v = self.eval(operand, env, depth);
                    CVal::num(v.num.wrapping_neg())
                }
                "!" => {
                    let v = self.eval(operand, env, depth);
                    CVal::num((v.num == 0) as i64)
                }
                "*" | "&" => self.eval(operand, env, depth),
                "++" | "--" => {
                    let delta = if op == "++" { 1 } else { -1 };
                    if let Expr::Ident(n) = operand.as_ref() {
                        let mut v = env.get(n).cloned().unwrap_or_default();
                        v.num = v.num.wrapping_add(delta);
                        env.insert(n.clone(), v.clone());
                        v
                    } else {
                        self.eval(operand, env, depth)
                    }
                }
                _ => CVal::num(0),
            },
            Expr::Postfix { op, operand } => {
                let delta = if op == "++" { 1 } else { -1 };
                if let Expr::Ident(n) = operand.as_ref() {
                    let old = env.get(n).cloned().unwrap_or_default();
                    let mut newv = old.clone();
                    newv.num = newv.num.wrapping_add(delta);
                    env.insert(n.clone(), newv);
                    old
                } else {
                    self.eval(operand, env, depth)
                }
            }
            Expr::Index { base, .. } => {
                let b = self.eval(base, env, depth);
                CVal {
                    num: 0,
                    buf: b.buf,
                    handle: None,
                }
            }
            Expr::Member { .. } => CVal::num(0),
        }
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        env: &mut BTreeMap<String, CVal>,
        depth: usize,
    ) -> CVal {
        // Evaluate arguments left-to-right (seeks and nested I/O run as
        // side effects here — before the surrounding call acts).
        let vals: Vec<CVal> = args.iter().map(|a| self.eval(a, env, depth)).collect();

        if let Some(api) = api_of(name) {
            return self.io_call(name, api, args, &vals);
        }
        if is_alloc_fn(name) {
            // Element size is refined by the declaring statement's type
            // (see `transfer`); default to 8 (double) like the analysis.
            let elems = vals.first().map(|v| v.num.max(0)).unwrap_or(0);
            self.buffers.push(BufferRt {
                bytes: elems as u64 * 8,
            });
            return CVal {
                num: 0,
                buf: Some(self.buffers.len() - 1),
                handle: None,
            };
        }
        if is_rand_fn(name) {
            return CVal::num((splitmix64(&mut self.rng) >> 33) as i64);
        }
        if let Some(f) = self.function(name) {
            if depth >= MAX_DEPTH {
                return CVal::num(0);
            }
            let mut frame: BTreeMap<String, CVal> = BTreeMap::new();
            for (i, (_, pname)) in f.params.iter().enumerate() {
                frame.insert(pname.clone(), vals.get(i).cloned().unwrap_or_default());
            }
            return match self.run_block(&f.body, &mut frame, depth + 1) {
                Flow::Return(v) => v,
                _ => CVal::num(0),
            };
        }
        // Unknown extern: 0, passing through the first pointer argument.
        CVal {
            num: 0,
            buf: vals.iter().find_map(|v| v.buf),
            handle: vals.iter().find_map(|v| v.handle),
        }
    }

    fn io_call(&mut self, name: &str, api: IoApi, args: &[Expr], vals: &[CVal]) -> CVal {
        match api {
            IoApi::Seek => {
                if let (Some(h), Some(off)) = (vals.first().and_then(|v| v.handle), vals.get(1)) {
                    let hr = &mut self.handles[h];
                    hr.cursor = off.num;
                    hr.seeked = true;
                }
                self.trace.meta_ops += 1;
                CVal::num(0)
            }
            IoApi::Meta => {
                self.trace.meta_ops += 1;
                if handle_api(name) {
                    self.handles.push(HandleRt {
                        cursor: 0,
                        seeked: false,
                    });
                    return CVal {
                        num: 0,
                        buf: None,
                        handle: Some(self.handles.len() - 1),
                    };
                }
                CVal::num(0)
            }
            IoApi::Logging => {
                self.trace.logging_ops += 1;
                CVal::num(0)
            }
            IoApi::DataWrite { collective } | IoApi::DataRead { collective } => {
                let dir = match api {
                    IoApi::DataWrite { .. } => Direction::Write,
                    _ => Direction::Read,
                };
                // Byte/handle conventions identical to the static model.
                let (bytes, handle) = match name {
                    "fwrite" | "fread" => (
                        (vals.get(1).map(|v| v.num).unwrap_or(0)
                            * vals.get(2).map(|v| v.num).unwrap_or(0))
                        .max(0) as u64,
                        vals.get(3).and_then(|v| v.handle),
                    ),
                    "write" | "read" | "pwrite" | "pread" => (
                        vals.get(2).map(|v| v.num.max(0)).unwrap_or(0) as u64,
                        vals.first().and_then(|v| v.handle),
                    ),
                    "H5Dwrite" | "H5Dread" => (
                        vals.get(1)
                            .and_then(|v| v.buf)
                            .map(|b| self.buffers[b].bytes)
                            .unwrap_or(0),
                        vals.first().and_then(|v| v.handle),
                    ),
                    _ => (
                        vals.last().map(|v| v.num.max(0)).unwrap_or(0) as u64,
                        vals.first().and_then(|v| v.handle),
                    ),
                };
                let (offset, seeked) = match handle {
                    Some(h) => {
                        let hr = &mut self.handles[h];
                        let at = hr.cursor;
                        hr.cursor += bytes as i64;
                        (at, hr.seeked)
                    }
                    None => (0, false),
                };
                let stmt_id = self.current_stmt;
                let call_expr_name = name.to_string();
                let obs = self.trace.sites.entry(stmt_id).or_insert_with(|| SiteObs {
                    stmt: stmt_id,
                    call: call_expr_name,
                    dir,
                    ops: 0,
                    bytes: 0,
                    req_sizes: Vec::new(),
                    offsets: Vec::new(),
                    collective,
                    seeked: false,
                });
                obs.ops += 1;
                obs.bytes += bytes;
                obs.req_sizes.push(bytes);
                obs.offsets.push(offset);
                obs.seeked |= seeked;
                self.trace.total_bytes += bytes;
                let _ = args;
                CVal::num(bytes as i64)
            }
        }
    }

    fn run_block(&mut self, block: &Block, env: &mut BTreeMap<String, CVal>, depth: usize) -> Flow {
        for stmt in &block.stmts {
            match self.run_stmt(stmt, env, depth) {
                Flow::Normal => {}
                other => return other,
            }
        }
        Flow::Normal
    }

    fn run_stmt(&mut self, stmt: &Stmt, env: &mut BTreeMap<String, CVal>, depth: usize) -> Flow {
        if !self.step() {
            return Flow::Return(CVal::num(0));
        }
        self.current_stmt = stmt.id;
        match &stmt.kind {
            StmtKind::Decl { ty, name, init, .. } => {
                let before = self.buffers.len();
                let v = match init {
                    Some(e) => self.eval(e, env, depth),
                    None => CVal::num(0),
                };
                // Fresh allocation in this initializer: element size comes
                // from the declared pointer type (matching the analysis).
                if let Some(b) = v.buf {
                    if b >= before {
                        let elem = elem_size_of_type(ty);
                        let elems = self.buffers[b].bytes / 8;
                        self.buffers[b].bytes = elems * elem;
                    }
                }
                env.insert(name.clone(), v);
                Flow::Normal
            }
            StmtKind::Assign { lhs, op, rhs } => {
                self.current_stmt = stmt.id;
                let rv = self.eval(rhs, env, depth);
                if let Expr::Ident(name) = lhs {
                    let cur = env.get(name).cloned().unwrap_or_default();
                    let new = match op.as_str() {
                        "=" => rv,
                        "+=" => CVal {
                            num: cur.num.wrapping_add(rv.num),
                            buf: cur.buf,
                            handle: cur.handle,
                        },
                        "-=" => CVal {
                            num: cur.num.wrapping_sub(rv.num),
                            buf: cur.buf,
                            handle: cur.handle,
                        },
                        "*=" => CVal::num(cur.num.wrapping_mul(rv.num)),
                        "/=" => CVal::num(if rv.num == 0 {
                            0
                        } else {
                            cur.num.wrapping_div(rv.num)
                        }),
                        _ => rv,
                    };
                    env.insert(name.clone(), new);
                }
                Flow::Normal
            }
            StmtKind::Expr(e) => {
                self.current_stmt = stmt.id;
                self.eval(e, env, depth);
                Flow::Normal
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let c = self.eval(cond, env, depth);
                if c.num != 0 {
                    self.run_block(then_block, env, depth)
                } else if let Some(e) = else_block {
                    self.run_block(e, env, depth)
                } else {
                    Flow::Normal
                }
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                match self.run_stmt(init, env, depth) {
                    Flow::Normal => {}
                    other => return other,
                }
                loop {
                    if let Some(c) = cond {
                        self.current_stmt = stmt.id;
                        if self.eval(c, env, depth).num == 0 {
                            break;
                        }
                    }
                    match self.run_block(body, env, depth) {
                        Flow::Break => break,
                        Flow::Return(v) => return Flow::Return(v),
                        Flow::Normal | Flow::Continue => {}
                    }
                    match self.run_stmt(update, env, depth) {
                        Flow::Normal => {}
                        other => return other,
                    }
                    if self.trace.truncated {
                        break;
                    }
                }
                Flow::Normal
            }
            StmtKind::While { cond, body } => {
                loop {
                    self.current_stmt = stmt.id;
                    if self.eval(cond, env, depth).num == 0 {
                        break;
                    }
                    match self.run_block(body, env, depth) {
                        Flow::Break => break,
                        Flow::Return(v) => return Flow::Return(v),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if self.trace.truncated {
                        break;
                    }
                }
                Flow::Normal
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    match self.run_block(body, env, depth) {
                        Flow::Break => break,
                        Flow::Return(v) => return Flow::Return(v),
                        Flow::Normal | Flow::Continue => {}
                    }
                    self.current_stmt = stmt.id;
                    if self.eval(cond, env, depth).num == 0 || self.trace.truncated {
                        break;
                    }
                }
                Flow::Normal
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env, depth),
                    None => CVal::num(0),
                };
                Flow::Return(v)
            }
            StmtKind::Break => Flow::Break,
            StmtKind::Continue => Flow::Continue,
            StmtKind::Empty => Flow::Normal,
        }
    }
}

impl<'p> Exec<'p> {
    fn new(prog: &'p Program, entry: &str, bindings: &BTreeMap<String, i64>) -> Exec<'p> {
        Exec {
            prog,
            buffers: Vec::new(),
            handles: Vec::new(),
            trace: DynTrace {
                entry: entry.to_string(),
                bindings: bindings.clone(),
                sites: BTreeMap::new(),
                total_bytes: 0,
                meta_ops: 0,
                logging_ops: 0,
                steps: 0,
                truncated: false,
            },
            rng: 0x7475_6e69_6f5f_696f, // fixed seed: deterministic replays
            current_stmt: StmtId(0),
        }
    }
}

/// Replay `entry` under concrete `bindings` and return the observed I/O.
///
/// Returns `None` when the program has no function named `entry`.
pub fn replay(prog: &Program, entry: &str, bindings: &BTreeMap<String, i64>) -> Option<DynTrace> {
    let f = prog.functions.iter().find(|f| f.name == entry)?;
    let mut exec = Exec::new(prog, entry, bindings);
    let mut env: BTreeMap<String, CVal> = BTreeMap::new();
    for (_, pname) in &f.params {
        env.insert(
            pname.clone(),
            CVal::num(bindings.get(pname).copied().unwrap_or(0)),
        );
    }
    exec.run_block(&f.body, &mut env, 0);
    Some(exec.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tunio_cminus::parser::parse;
    use tunio_cminus::samples;

    fn bindings(pairs: &[(&str, i64)]) -> BTreeMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn trace_of(src: &str, entry: &str, binds: &[(&str, i64)]) -> DynTrace {
        let prog = parse(src).unwrap();
        replay(&prog, entry, &bindings(binds)).expect("entry exists")
    }

    #[test]
    fn vpic_replay_counts_steps_and_bytes() {
        let t = trace_of(
            samples::VPIC_IO,
            "vpic_dump",
            &[("num_steps", 5), ("particles", 1000)],
        );
        assert_eq!(t.sites.len(), 1);
        let obs = t.sites.values().next().unwrap();
        assert_eq!(obs.ops, 5);
        assert_eq!(obs.bytes, 5 * 8 * 1000);
        assert_eq!(obs.observed_pattern(), "collective");
        assert_eq!(t.total_bytes, 40_000);
        // printf fires on steps 0 (every diag_interval=10 → once in 5).
        assert_eq!(t.logging_ops, 1);
    }

    #[test]
    fn flash_replay_honours_plot_guard() {
        let t = trace_of(
            samples::FLASH_IO,
            "flash_io",
            &[("nsteps", 10), ("blocks", 64)],
        );
        let mut ops: Vec<u64> = t.sites.values().map(|s| s.ops).collect();
        ops.sort_unstable();
        assert_eq!(ops, vec![3, 10]); // plots on n = 0,4,8; ckpt every step
        assert_eq!(t.total_bytes, (10 + 3) * 64 * 8);
    }

    #[test]
    fn bdcats_replay_runs_all_rounds() {
        // evaluate_clusters is an unknown extern → 0, so quality > 95
        // never fires and the loop runs max_rounds times.
        let t = trace_of(
            samples::BDCATS_IO,
            "bdcats_cluster",
            &[("max_rounds", 6), ("np", 100)],
        );
        let read = t.sites.values().find(|s| s.dir == Direction::Read).unwrap();
        let write = t
            .sites
            .values()
            .find(|s| s.dir == Direction::Write)
            .unwrap();
        assert_eq!(read.ops, 6);
        assert_eq!(read.bytes, 6 * 8 * 100);
        // dbscan passthrough repoints labels at the slab buffer.
        assert_eq!(write.ops, 1);
        assert_eq!(write.bytes, 8 * 100);
    }

    #[test]
    fn nyx_replay_is_sequential() {
        let t = trace_of(
            samples::NYX_LOG_IO,
            "nyx_log",
            &[("steps", 8), ("nvals", 4096)],
        );
        let obs = t.sites.values().next().unwrap();
        assert_eq!(obs.ops, 8);
        assert_eq!(obs.observed_pattern(), "sequential");
        assert_eq!(t.total_bytes, 8 * 8 * 4096);
    }

    #[test]
    fn ior_replay_is_random() {
        let t = trace_of(
            samples::IOR_RANDOM_IO,
            "ior_probe",
            &[("nprobes", 16), ("region", 1 << 30)],
        );
        let obs = t.sites.values().next().unwrap();
        assert_eq!(obs.ops, 16);
        assert_eq!(obs.observed_pattern(), "random");
        assert_eq!(obs.req_sizes[0], 262_144);
    }

    #[test]
    fn gyro_replay_is_strided() {
        let t = trace_of(samples::GYRO_STRIDED_IO, "gyro_restart", &[("nframes", 7)]);
        let obs = t.sites.values().next().unwrap();
        assert_eq!(obs.ops, 7);
        assert_eq!(obs.observed_pattern(), "strided");
        assert_eq!(obs.offsets[1] - obs.offsets[0], 4_194_304);
        assert_eq!(obs.bytes, 7 * 1_048_576);
    }

    #[test]
    fn replay_is_deterministic() {
        let prog = parse(samples::IOR_RANDOM_IO).unwrap();
        let b = bindings(&[("nprobes", 8), ("region", 4096)]);
        let t1 = replay(&prog, "ior_probe", &b).unwrap();
        let t2 = replay(&prog, "ior_probe", &b).unwrap();
        let o1 = t1.sites.values().next().unwrap();
        let o2 = t2.sites.values().next().unwrap();
        assert_eq!(o1.offsets, o2.offsets);
    }

    #[test]
    fn missing_entry_is_none() {
        let prog = parse(samples::VPIC_IO).unwrap();
        assert!(replay(&prog, "nope", &BTreeMap::new()).is_none());
    }

    #[test]
    fn runaway_loop_truncates() {
        let t = trace_of("void f() { while (1) { spin(); } }", "f", &[]);
        assert!(t.truncated);
    }
}
