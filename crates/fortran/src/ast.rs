//! Abstract syntax for the Fortran subset + HPF directives.
//!
//! Statements and array references carry stable ids assigned in parse
//! order; the analysis crates (`dhpf-depend`, `dhpf-core`) key their
//! results by these ids rather than by tree position.

use crate::span::Span;
use std::collections::BTreeMap;
use std::fmt;

/// Stable statement id (parse order, unique within a [`Program`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StmtId(pub u32);

/// Stable array-reference id (parse order, unique within a [`Program`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RefId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for RefId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A whole source file: one or more program units.
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub units: Vec<ProgramUnit>,
}

impl Program {
    /// Find a unit by (lower-case) name.
    pub fn unit(&self, name: &str) -> Option<&ProgramUnit> {
        self.units.iter().find(|u| u.name == name)
    }

    /// The main program unit, if any.
    pub fn main(&self) -> Option<&ProgramUnit> {
        self.units
            .iter()
            .find(|u| matches!(u.kind, UnitKind::Program))
    }

    /// Visit every statement of every unit (pre-order).
    pub fn for_each_stmt<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        for u in &self.units {
            for s in &u.body {
                s.walk(f);
            }
        }
    }
}

/// Program unit kind.
#[derive(Clone, Debug, PartialEq)]
pub enum UnitKind {
    Program,
    Subroutine { args: Vec<String> },
    Function { args: Vec<String> },
}

/// One program unit with its declarations, HPF mapping directives and body.
#[derive(Clone, Debug)]
pub struct ProgramUnit {
    pub name: String,
    pub kind: UnitKind,
    pub decls: Decls,
    pub hpf: HpfMapping,
    pub body: Vec<Stmt>,
    pub span: Span,
}

impl ProgramUnit {
    /// Dummy-argument names (empty for `program`).
    pub fn args(&self) -> &[String] {
        match &self.kind {
            UnitKind::Program => &[],
            UnitKind::Subroutine { args } | UnitKind::Function { args } => args,
        }
    }

    /// Visit every statement in the body (pre-order).
    pub fn for_each_stmt<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        for s in &self.body {
            s.walk(f);
        }
    }
}

/// Scalar element type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ty {
    Integer,
    Real,
    /// `double precision` (we evaluate everything in f64 anyway; the
    /// distinction is kept for unparsing fidelity).
    Double,
    Logical,
}

/// One declared variable (rank 0 = scalar).
#[derive(Clone, Debug)]
pub struct VarDecl {
    pub name: String,
    pub ty: Ty,
    /// Per-dimension `(lower, upper)` bound expressions; a plain `n` means
    /// `(1, n)`.
    pub dims: Vec<(Expr, Expr)>,
    pub span: Span,
}

impl VarDecl {
    pub fn rank(&self) -> usize {
        self.dims.len()
    }
}

/// Declarations of a program unit.
#[derive(Clone, Debug, Default)]
pub struct Decls {
    /// All declared variables by (lower-case) name.
    pub vars: BTreeMap<String, VarDecl>,
    /// `parameter` constants (integer-valued; evaluated at parse time).
    pub params: BTreeMap<String, i64>,
    /// `common /name/ vars` blocks, in order.
    pub commons: Vec<(String, Vec<String>)>,
}

impl Decls {
    pub fn var(&self, name: &str) -> Option<&VarDecl> {
        self.vars.get(name)
    }

    /// Whether `name` is a declared array (rank ≥ 1).
    pub fn is_array(&self, name: &str) -> bool {
        self.vars.get(name).is_some_and(|v| v.rank() > 0)
    }
}

/// Per-unit HPF mapping directives.
#[derive(Clone, Debug, Default)]
pub struct HpfMapping {
    pub processors: Vec<ProcessorsDecl>,
    pub templates: Vec<TemplateDecl>,
    pub aligns: Vec<AlignDecl>,
    pub distributes: Vec<DistributeDecl>,
}

/// `!HPF$ PROCESSORS p(e1, e2, …)`
#[derive(Clone, Debug)]
pub struct ProcessorsDecl {
    pub name: String,
    pub extents: Vec<Expr>,
    pub span: Span,
}

/// `!HPF$ TEMPLATE t(e1, …)`
#[derive(Clone, Debug)]
pub struct TemplateDecl {
    pub name: String,
    pub extents: Vec<Expr>,
    pub span: Span,
}

/// `!HPF$ ALIGN a(i, j) WITH t(i+1, j)`
#[derive(Clone, Debug)]
pub struct AlignDecl {
    pub array: String,
    pub dummies: Vec<String>,
    pub target: String,
    /// Target subscripts in terms of the dummies (affine).
    pub target_subs: Vec<Expr>,
    pub span: Span,
}

/// Distribution format for one dimension.
#[derive(Clone, Debug, PartialEq)]
pub enum DistFormat {
    Block,
    /// `BLOCK(k)`
    BlockK(i64),
    Cyclic,
    /// `*` — dimension not distributed.
    Star,
}

/// `!HPF$ DISTRIBUTE t(BLOCK, *, BLOCK) ONTO p` — `targets` may list
/// several arrays/templates sharing one format (the `::` form).
#[derive(Clone, Debug)]
pub struct DistributeDecl {
    pub targets: Vec<String>,
    pub formats: Vec<DistFormat>,
    pub onto: Option<String>,
    pub span: Span,
}

/// Directives attached to a `do` loop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopDirective {
    /// `INDEPENDENT` was asserted.
    pub independent: bool,
    /// `NEW(v, …)` — privatizable variables (§4.1).
    pub new_vars: Vec<String>,
    /// `LOCALIZE(v, …)` — partial-replication variables (§4.2, dHPF ext.).
    pub localize_vars: Vec<String>,
}

impl LoopDirective {
    pub fn is_empty(&self) -> bool {
        !self.independent && self.new_vars.is_empty() && self.localize_vars.is_empty()
    }
}

/// An array reference (or scalar variable use, rank 0; or a call-site
/// argument expression head). Function references parse identically and
/// are distinguished later via the symbol table.
#[derive(Clone, Debug)]
pub struct ArrayRef {
    pub id: RefId,
    pub name: String,
    pub subs: Vec<Expr>,
    pub span: Span,
}

impl ArrayRef {
    pub fn is_scalar(&self) -> bool {
        self.subs.is_empty()
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Expressions.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Real literal.
    Real(f64, Span),
    /// Logical literal.
    Logical(bool, Span),
    /// Variable / array element / function call.
    Ref(ArrayRef),
    Bin(BinOp, Box<Expr>, Box<Expr>, Span),
    Un(UnOp, Box<Expr>, Span),
}

impl Expr {
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s) | Expr::Real(_, s) | Expr::Logical(_, s) => *s,
            Expr::Ref(r) => r.span,
            Expr::Bin(_, _, _, s) | Expr::Un(_, _, s) => *s,
        }
    }

    /// Visit every [`ArrayRef`] in the expression (pre-order, including
    /// subscript expressions).
    pub fn for_each_ref<'a>(&'a self, f: &mut dyn FnMut(&'a ArrayRef)) {
        match self {
            Expr::Ref(r) => {
                f(r);
                for s in &r.subs {
                    s.for_each_ref(f);
                }
            }
            Expr::Bin(_, a, b, _) => {
                a.for_each_ref(f);
                b.for_each_ref(f);
            }
            Expr::Un(_, a, _) => a.for_each_ref(f),
            _ => {}
        }
    }

    /// Count arithmetic operations in the expression (drives the shared
    /// virtual-time cost model; `Pow` and `Div` count heavier).
    pub fn flop_count(&self) -> u64 {
        match self {
            Expr::Bin(op, a, b, _) => {
                let w = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul => 1,
                    BinOp::Div => 4,
                    BinOp::Pow => 8,
                    _ => 1,
                };
                w + a.flop_count() + b.flop_count()
            }
            Expr::Un(_, a, _) => a.flop_count(),
            Expr::Ref(r) => {
                // intrinsic calls cost a few flops; plain refs cost none
                let sub_cost: u64 = r.subs.iter().map(|s| s.flop_count()).sum();
                sub_cost
            }
            _ => 0,
        }
    }
}

/// Statements.
#[derive(Clone, Debug)]
pub struct Stmt {
    pub id: StmtId,
    pub span: Span,
    pub kind: StmtKind,
    /// Optional numeric label (for `continue` targets; informational).
    pub label: Option<u32>,
}

/// Statement kinds.
#[derive(Clone, Debug)]
pub enum StmtKind {
    Assign {
        lhs: ArrayRef,
        rhs: Expr,
    },
    Do {
        var: String,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Vec<Stmt>,
        dir: LoopDirective,
    },
    /// `if/else if/else` chain: each arm is `(condition, body)`; the else
    /// arm has `None`.
    If {
        arms: Vec<(Option<Expr>, Vec<Stmt>)>,
    },
    Call {
        name: String,
        args: Vec<Expr>,
        /// Ref ids assigned to whole-array arguments (one per argument
        /// that is a bare array name); used by interprocedural analysis.
        arg_refs: Vec<Option<RefId>>,
    },
    Return,
    Continue,
}

impl Stmt {
    /// Pre-order walk including nested bodies.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::Do { body, .. } => {
                for s in body {
                    s.walk(f);
                }
            }
            StmtKind::If { arms } => {
                for (_, body) in arms {
                    for s in body {
                        s.walk(f);
                    }
                }
            }
            _ => {}
        }
    }

    /// Visit every [`ArrayRef`] in the statement, with a flag marking the
    /// single *written* reference (the assignment LHS).
    pub fn for_each_ref<'a>(&'a self, f: &mut dyn FnMut(&'a ArrayRef, bool)) {
        match &self.kind {
            StmtKind::Assign { lhs, rhs } => {
                f(lhs, true);
                for s in &lhs.subs {
                    s.for_each_ref(&mut |r| f(r, false));
                }
                rhs.for_each_ref(&mut |r| f(r, false));
            }
            StmtKind::Do { lo, hi, step, .. } => {
                lo.for_each_ref(&mut |r| f(r, false));
                hi.for_each_ref(&mut |r| f(r, false));
                if let Some(s) = step {
                    s.for_each_ref(&mut |r| f(r, false));
                }
            }
            StmtKind::If { arms } => {
                for (cond, _) in arms {
                    if let Some(c) = cond {
                        c.for_each_ref(&mut |r| f(r, false));
                    }
                }
            }
            StmtKind::Call { args, .. } => {
                for a in args {
                    a.for_each_ref(&mut |r| f(r, false));
                }
            }
            _ => {}
        }
    }
}

/// Names of supported intrinsic functions (calls to these are evaluated
/// inline by the interpreter and never treated as user procedures).
pub const INTRINSICS: &[&str] = &[
    "min", "max", "abs", "mod", "sqrt", "exp", "dble", "int", "sin", "cos", "sign",
];

/// Is `name` an intrinsic function?
pub fn is_intrinsic(name: &str) -> bool {
    INTRINSICS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_ref(id: u32, name: &str) -> ArrayRef {
        ArrayRef {
            id: RefId(id),
            name: name.into(),
            subs: vec![],
            span: Span::default(),
        }
    }

    #[test]
    fn flop_count_weights() {
        let s = Span::default();
        let a = Expr::Ref(dummy_ref(0, "a"));
        let b = Expr::Ref(dummy_ref(1, "b"));
        let mul = Expr::Bin(BinOp::Mul, Box::new(a), Box::new(b), s);
        assert_eq!(mul.flop_count(), 1);
        let div = Expr::Bin(
            BinOp::Div,
            Box::new(mul.clone()),
            Box::new(Expr::Int(2, s)),
            s,
        );
        assert_eq!(div.flop_count(), 5);
    }

    #[test]
    fn walk_visits_nested() {
        let inner = Stmt {
            id: StmtId(1),
            span: Span::default(),
            label: None,
            kind: StmtKind::Continue,
        };
        let outer = Stmt {
            id: StmtId(0),
            span: Span::default(),
            label: None,
            kind: StmtKind::Do {
                var: "i".into(),
                lo: Expr::Int(1, Span::default()),
                hi: Expr::Int(2, Span::default()),
                step: None,
                body: vec![inner],
                dir: LoopDirective::default(),
            },
        };
        let mut seen = vec![];
        outer.walk(&mut |s| seen.push(s.id));
        assert_eq!(seen, vec![StmtId(0), StmtId(1)]);
    }

    #[test]
    fn intrinsic_lookup() {
        assert!(is_intrinsic("sqrt"));
        assert!(!is_intrinsic("lhsy"));
    }
}
