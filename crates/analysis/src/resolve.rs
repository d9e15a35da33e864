//! Scoped name resolution.
//!
//! Binds every variable use to a unique [`VarId`] using C block-scoping
//! rules, so two variables that share a name — a shadowing declaration in
//! a nested block, or same-named locals in different functions — never
//! conflate. This is the fix for the seed marking pass's string-fact
//! model, which keyed def-use chains on bare names.

use std::collections::BTreeMap;
use tunio_cminus::ast::{Block, Expr, Function, Program, Stmt, StmtId, StmtKind};

/// Identity of a resolved variable within one function's resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// How a variable came into scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Declared by a `Decl` statement. `initialized` is true when the
    /// declaration has an initializer or is an array (arrays are treated
    /// coarsely as initialized storage).
    Local {
        /// Whether the declaration initializes the variable.
        initialized: bool,
    },
    /// A function parameter (initialized by the caller).
    Param,
    /// A name with no in-scope declaration — a global or external symbol.
    /// Treated as initialized and observable after the function returns.
    External,
}

/// A resolved variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Source name.
    pub name: String,
    /// Declaring statement (`None` for params and externals).
    pub decl: Option<StmtId>,
    /// How the variable came into scope.
    pub kind: VarKind,
}

/// Name resolution for one function: variables, and per-statement
/// reads/writes/calls in terms of [`VarId`].
#[derive(Debug, Clone, Default)]
pub struct FnResolution {
    /// Function name.
    pub name: String,
    /// All variables; index is the [`VarId`].
    pub vars: Vec<VarInfo>,
    /// Variables each statement reads (header reads only for control
    /// statements — nested bodies are separate statements).
    pub reads: BTreeMap<StmtId, Vec<VarId>>,
    /// Variables each statement writes (strong or partial).
    pub writes: BTreeMap<StmtId, Vec<VarId>>,
    /// Variables each statement *strongly* writes — whole-variable
    /// assignments that overwrite every previous definition. Partial
    /// stores (`a[i] = …`, `p->f = …`, `*p = …`) write without killing.
    pub kills: BTreeMap<StmtId, Vec<VarId>>,
    /// Function names each statement calls.
    pub calls: BTreeMap<StmtId, Vec<String>>,
    /// Statement ids belonging to this function, in visit order.
    pub stmts: Vec<StmtId>,
}

impl FnResolution {
    /// Info for a variable.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0 as usize]
    }

    /// Reads of a statement (empty slice if none recorded).
    pub fn reads_of(&self, id: StmtId) -> &[VarId] {
        self.reads.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Writes of a statement (empty slice if none recorded).
    pub fn writes_of(&self, id: StmtId) -> &[VarId] {
        self.writes.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Strong (killing) writes of a statement.
    pub fn kills_of(&self, id: StmtId) -> &[VarId] {
        self.kills.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Calls of a statement (empty slice if none recorded).
    pub fn calls_of(&self, id: StmtId) -> &[String] {
        self.calls.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }
}

struct Resolver {
    res: FnResolution,
    /// Innermost scope last; each maps name → VarId.
    scopes: Vec<BTreeMap<String, VarId>>,
    /// Externals already created, so repeated uses share a VarId.
    externals: BTreeMap<String, VarId>,
}

impl Resolver {
    fn fresh(&mut self, info: VarInfo) -> VarId {
        let id = VarId(self.res.vars.len() as u32);
        self.res.vars.push(info);
        id
    }

    fn declare(&mut self, name: &str, decl: Option<StmtId>, kind: VarKind) -> VarId {
        let id = self.fresh(VarInfo {
            name: name.to_string(),
            decl,
            kind,
        });
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), id);
        id
    }

    /// Resolve a name to the innermost binding, creating an external on
    /// first unresolved use.
    fn lookup(&mut self, name: &str) -> VarId {
        for scope in self.scopes.iter().rev() {
            if let Some(id) = scope.get(name) {
                return *id;
            }
        }
        if let Some(id) = self.externals.get(name) {
            return *id;
        }
        let id = self.fresh(VarInfo {
            name: name.to_string(),
            decl: None,
            kind: VarKind::External,
        });
        self.externals.insert(name.to_string(), id);
        id
    }

    fn record(
        &mut self,
        id: StmtId,
        reads: Vec<String>,
        writes: Vec<VarId>,
        kills: Vec<VarId>,
        calls: Vec<String>,
    ) {
        let read_ids: Vec<VarId> = reads.iter().map(|n| self.lookup(n)).collect();
        self.res.stmts.push(id);
        self.res.reads.insert(id, read_ids);
        self.res.writes.insert(id, writes);
        self.res.kills.insert(id, kills);
        self.res.calls.insert(id, calls);
    }

    fn block(&mut self, block: &Block) {
        self.scopes.push(BTreeMap::new());
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, stmt: &Stmt) {
        let mut reads = Vec::new();
        let mut calls = Vec::new();
        match &stmt.kind {
            StmtKind::Decl {
                name, array, init, ..
            } => {
                if let Some(e) = init {
                    e.idents(&mut reads);
                    e.call_names(&mut calls);
                }
                // C scoping: the name is visible from its own declarator,
                // but the initializer reads resolve *before* it shadows
                // (reading the variable in its own initializer is the
                // uninitialized-read case the entry-def model catches).
                let read_ids: Vec<VarId> = reads.iter().map(|n| self.lookup(n)).collect();
                let initialized = init.is_some() || array.is_some();
                let var = self.declare(name, Some(stmt.id), VarKind::Local { initialized });
                let writes = if initialized { vec![var] } else { Vec::new() };
                self.res.stmts.push(stmt.id);
                self.res.reads.insert(stmt.id, read_ids);
                self.res.kills.insert(stmt.id, writes.clone());
                self.res.writes.insert(stmt.id, writes);
                self.res.calls.insert(stmt.id, calls);
            }
            StmtKind::Assign { lhs, op, rhs } => {
                let mut writes = Vec::new();
                let mut kills = Vec::new();
                if let Some(root) = lhs.lvalue_root() {
                    let var = self.lookup(root);
                    // Writing through an index or member only updates part
                    // of the object, so the store both reads and writes it
                    // and does not kill earlier definitions; a whole-variable
                    // compound assignment also reads its target.
                    let partial = !matches!(lhs, Expr::Ident(_));
                    writes.push(var);
                    if partial {
                        reads.push(root.to_string());
                    } else {
                        kills.push(var);
                        if op != "=" {
                            reads.push(root.to_string());
                        }
                    }
                }
                collect_lhs_reads(lhs, &mut reads);
                rhs.idents(&mut reads);
                rhs.call_names(&mut calls);
                lhs.call_names(&mut calls);
                self.record(stmt.id, reads, writes, kills, calls);
            }
            StmtKind::Expr(e) => {
                e.idents(&mut reads);
                e.call_names(&mut calls);
                let mut writes = Vec::new();
                let mut kills = Vec::new();
                if let Expr::Postfix { operand, .. } | Expr::Unary { operand, .. } = e {
                    if let Some(root) = operand.lvalue_root() {
                        let var = self.lookup(root);
                        writes.push(var);
                        if matches!(**operand, Expr::Ident(_)) {
                            kills.push(var);
                        }
                    }
                }
                self.record(stmt.id, reads, writes, kills, calls);
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                cond.idents(&mut reads);
                cond.call_names(&mut calls);
                self.record(stmt.id, reads, Vec::new(), Vec::new(), calls);
                self.block(then_block);
                if let Some(e) = else_block {
                    self.block(e);
                }
            }
            StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                cond.idents(&mut reads);
                cond.call_names(&mut calls);
                self.record(stmt.id, reads, Vec::new(), Vec::new(), calls);
                self.block(body);
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                // The for-init declaration scopes over cond, update, body.
                self.scopes.push(BTreeMap::new());
                self.stmt(init);
                if let Some(c) = cond {
                    c.idents(&mut reads);
                    c.call_names(&mut calls);
                }
                self.record(stmt.id, reads, Vec::new(), Vec::new(), calls);
                self.stmt(update);
                self.block(body);
                self.scopes.pop();
            }
            StmtKind::Return(value) => {
                if let Some(e) = value {
                    e.idents(&mut reads);
                    e.call_names(&mut calls);
                }
                self.record(stmt.id, reads, Vec::new(), Vec::new(), calls);
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {
                self.record(stmt.id, Vec::new(), Vec::new(), Vec::new(), Vec::new());
            }
        }
    }
}

/// Reads hidden inside an lvalue (`a[i]` reads `i`; `p->f` reads `p`).
fn collect_lhs_reads(lhs: &Expr, reads: &mut Vec<String>) {
    match lhs {
        Expr::Index { base, index } => {
            index.idents(reads);
            collect_lhs_reads(base, reads);
        }
        Expr::Member { base, .. } => collect_lhs_reads(base, reads),
        _ => {}
    }
}

/// Resolve one function.
pub fn resolve_function(f: &Function) -> FnResolution {
    let mut r = Resolver {
        res: FnResolution {
            name: f.name.clone(),
            ..FnResolution::default()
        },
        scopes: vec![BTreeMap::new()],
        externals: BTreeMap::new(),
    };
    for (_, pname) in &f.params {
        r.declare(pname, None, VarKind::Param);
    }
    r.block(&f.body);
    r.res
}

/// Resolve every function in a program.
pub fn resolve_program(p: &Program) -> Vec<FnResolution> {
    p.functions.iter().map(resolve_function).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tunio_cminus::parser::parse;

    fn var_named<'r>(res: &'r FnResolution, name: &str) -> Vec<(VarId, &'r VarInfo)> {
        res.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.name == name)
            .map(|(i, v)| (VarId(i as u32), v))
            .collect()
    }

    #[test]
    fn shadowed_locals_get_distinct_ids() {
        let src = r#"
            void f(int n) {
                int size = outer_size(n);
                if (n > 0) {
                    int size = inner_size(n);
                    crunch(size);
                }
                H5Dwrite(d, size);
            }
        "#;
        let prog = parse(src).unwrap();
        let res = resolve_function(&prog.functions[0]);
        let sizes = var_named(&res, "size");
        assert_eq!(sizes.len(), 2, "two distinct `size` variables");

        // `crunch(size)` reads the inner one; `H5Dwrite(d, size)` the outer.
        let mut crunch_read = None;
        let mut write_read = None;
        for (id, calls) in &res.calls {
            if calls.iter().any(|c| c == "crunch") {
                crunch_read = res.reads_of(*id).first().copied();
            }
            if calls.iter().any(|c| c == "H5Dwrite") {
                write_read = res.reads_of(*id).iter().next_back().copied();
            }
        }
        let (crunch_read, write_read) = (crunch_read.unwrap(), write_read.unwrap());
        assert_ne!(crunch_read, write_read, "shadowed uses must not conflate");
        assert_eq!(res.var(crunch_read).name, "size");
        assert_eq!(res.var(write_read).name, "size");
    }

    #[test]
    fn params_and_externals_are_classified() {
        let prog = parse("void f(int n) { total += n; }").unwrap();
        let res = resolve_function(&prog.functions[0]);
        let (_, n) = var_named(&res, "n")[0];
        assert_eq!(n.kind, VarKind::Param);
        let (_, total) = var_named(&res, "total")[0];
        assert_eq!(total.kind, VarKind::External);
    }

    #[test]
    fn for_init_scopes_over_the_loop() {
        let src = "void f() { for (int i = 0; i < 3; i++) { g(i); } h(i); }";
        let prog = parse(src).unwrap();
        let res = resolve_function(&prog.functions[0]);
        let is = var_named(&res, "i");
        // Loop-local `i` plus the external `i` read by `h(i)` after the loop.
        assert_eq!(is.len(), 2);
        assert!(is
            .iter()
            .any(|(_, v)| matches!(v.kind, VarKind::Local { .. })));
        assert!(is.iter().any(|(_, v)| v.kind == VarKind::External));
    }

    #[test]
    fn decl_without_init_is_uninitialized() {
        let prog = parse("void f() { int x; int y = 1; int a[3]; }").unwrap();
        let res = resolve_function(&prog.functions[0]);
        let (_, x) = var_named(&res, "x")[0];
        assert_eq!(x.kind, VarKind::Local { initialized: false });
        let (_, y) = var_named(&res, "y")[0];
        assert_eq!(y.kind, VarKind::Local { initialized: true });
        // Arrays are coarsely treated as initialized storage.
        let (_, a) = var_named(&res, "a")[0];
        assert_eq!(a.kind, VarKind::Local { initialized: true });
    }

    #[test]
    fn compound_and_indexed_stores_read_their_target() {
        let prog = parse("void f(int i) { int x = 0; x += 1; int b[4]; b[i] = 2; }").unwrap();
        let res = resolve_function(&prog.functions[0]);
        let (xid, _) = var_named(&res, "x")[0];
        let (bid, _) = var_named(&res, "b")[0];
        let plus_eq = res
            .stmts
            .iter()
            .find(|s| res.writes_of(**s).contains(&xid) && res.reads_of(**s).contains(&xid))
            .copied();
        assert!(plus_eq.is_some(), "x += 1 reads and writes x");
        // The decl also writes (and kills) `b`; the partial store is the
        // write with no kill.
        let idx_store = res
            .stmts
            .iter()
            .find(|s| res.writes_of(**s).contains(&bid) && res.kills_of(**s).is_empty())
            .copied()
            .unwrap();
        assert!(
            res.reads_of(idx_store).contains(&bid),
            "partial store reads the array"
        );
    }

    #[test]
    fn same_name_in_two_functions_is_distinct_per_resolution() {
        let src = r#"
            void a() { double * buf = alloc(1); use(buf); }
            void b() { double * buf = alloc(2); H5Dwrite(d, buf); }
        "#;
        let prog = parse(src).unwrap();
        let rs = resolve_program(&prog);
        assert_eq!(rs.len(), 2);
        // Each resolution is self-contained: the decl stmt ids differ.
        let decl_of = |r: &FnResolution| var_named(r, "buf")[0].1.decl.unwrap();
        assert_ne!(decl_of(&rs[0]), decl_of(&rs[1]));
    }
}
