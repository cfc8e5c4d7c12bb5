//! Compiled execution plans: compile → bind → schedule → execute.
//!
//! A training loop evaluates the same ansatz thousands of times
//! (parameter-shift training costs `2·sites + 1` evaluations per
//! gradient step), so re-validating, re-fusing and re-classifying the
//! circuit on every call is waste. This module is the executor behind
//! every [`Circuit::run_on`]; it splits execution into phases so
//! everything parameter-independent is paid once:
//!
//! 1. **Compile** ([`Circuit::compile`] → [`ExecPlan`]): structural
//!    validation, one op record per circuit op, and the numeric matrix
//!    of every op whose angle is already known (non-parametrized gates
//!    and [`ParamRef::Fixed`] angles — the trig calls happen here, not
//!    per run). Plans are parameter-independent: one plan serves every
//!    parameter vector and every ±π/2 shift evaluation.
//! 2. **Bind** ([`ExecPlan::bind`] → [`BoundPlan`]): resolves symbolic
//!    angles against a parameter vector (a shift site patches its
//!    resolved angle here: [`BoundPlan::rebind_shifted`] is the one
//!    op-shift entry point), runs 1q-fusion + diagonal-folding, and
//!    classifies each resulting matrix into its kernel
//!    (`Kernel2`/`Kernel4`) exactly once. Binding is `O(ops)`
//!    small-matrix work — microseconds against the milliseconds of a
//!    16-qubit state sweep.
//! 3. **Schedule**: consecutive bound gates whose operand qubits all fit
//!    a cache-sized tile (`2^T` amplitudes, `T` = 13) are grouped into a
//!    *tile block*; gates touching a qubit ≥ `T` become
//!    sweep boundaries. On top of tiling, **pass fusion** lifts gates
//!    that are pure amplitude permutations (CX, X, Swap — every kernel
//!    coefficient exactly `1`) out of the gate stream entirely: their
//!    index maps are composed into one affine GF(2) map
//!    (`AffinePerm`, `i ↦ L·i ⊕ t`) that is deferred past any gate it
//!    does not overlap and flushed as a single gather pass
//!    (`Step::Permute`). An entangler ring that cost `N` sweeps costs
//!    one; a layered ansatz drops from `~2N` to `N + 1` passes per
//!    layer. Permutations do no arithmetic, so deferral and composition
//!    are byte-preserving by construction — gates that *scale*
//!    amplitudes (CZ, Rzz) never fuse. `QSIM_FUSE=off` (or
//!    [`with_fuse_mode`]) forces the per-gate schedule.
//! 4. **Execute** ([`BoundPlan::run_on`]): a tile block makes **one**
//!    sweep over the state, applying all its gates tile by tile while
//!    the tile is cache-resident — a block of `k` low-qubit gates pays
//!    one memory pass, not `k`.
//!    Sweep gates use the classic whole-array kernels; permutation
//!    flushes gather into a reused thread-local scratch buffer and swap.
//!    The executor runs a range of *atoms*: an atom is one gate a tile
//!    block or sweep applies, or one permutation pass. `run_on` is the
//!    full range; a range that starts or ends inside a tile block runs
//!    that block's slice of gates tile by tile.
//! 5. **Resume** ([`BoundPlan::shared_prefix`], [`PrefixCursor`]): two
//!    bindings of one plan (a parameter vector and its ±π/2 shift) often
//!    execute the same leading atoms — same qubits, same matrix bits,
//!    same permutation. A cursor keeps the state after such a prefix of
//!    one binding, and a shifted evaluation starts from a copy of it and
//!    runs only its own remaining atoms. The prefix comes from comparing
//!    the two schedules atom by atom, not from op order: fusion and
//!    permutation deferral move gates, and a shift can change fusion.
//!
//! The schedule is observable: [`BoundPlan::passes`] counts gate visits
//! under the per-gate traffic model, [`BoundPlan::num_passes`] counts
//! physical memory passes, and [`BoundPlan::amp_bytes_swept`] is a
//! deterministic bytes-moved model — `qbench` gates on them
//! (`qsim.plan.passes_per_run`, `qsim.plan.amp_bytes_per_run`), so the
//! traffic is counter-verified, not just timed.
//!
//! ## Bit-exactness
//!
//! Plan execution is bit-identical, at every thread count, to the
//! op-by-op reference interpreter that tests keep as an oracle (`ExecMode::Interp`, only
//! built under `cfg(test)` / the `testing` feature;
//! `crates/qsim/tests/plan_equivalence.rs` proves it over random
//! circuits):
//!
//! * binding shares the interpreter's fusion helpers and matrix-product
//!   order, so the bound gate sequence carries the exact matrices the
//!   interpreter applies;
//! * kernels update disjoint amplitude pairs/quads independently, so
//!   applying a gate tile-by-tile (any region decomposition into whole
//!   pair/quad blocks) is bit-identical to one whole-array pass;
//! * parallel execution hands each worker whole tiles; per-tile
//!   arithmetic does not depend on which thread runs the tile;
//! * a resumed run applies, to every amplitude, the same gates in the same
//!   order as a full run: the shared atoms on the cursor, the rest on the
//!   copy. Splitting a tile block between the two changes no computed
//!   bit, for the reason above.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::OnceLock;

use crate::circuit::{
    is_dense4, is_diag2, is_unit_perm4, mat2_mul, mat4_fold1q, Circuit, CircuitError, ParamRef,
};
use crate::complex::Complex64;
use crate::gate::{Gate, Matrix2, Matrix4};
use crate::state::{kernel_threads, Kernel2, Kernel4, StateError, StateVector};

/// Name of the environment variable toggling pass-fusion scheduling
/// (`QSIM_FUSE=off` forces the per-gate schedule — the escape hatch that
/// keeps the pre-fusion path testable forever).
pub const FUSE_ENV: &str = "QSIM_FUSE";

/// Tile size exponent: `2^13` amplitudes = 128 KiB of state per tile.
/// Large enough that gates up to qubit 12 tile (fewer sweep boundaries),
/// small enough to stay L2-resident on every mainstream core.
const TILE_QUBITS: usize = 13;

/// Minimum number of gates before a run of tileable gates is worth a
/// tile block (a single gate executes faster as one whole-array sweep,
/// which also keeps its built-in threading).
const MIN_TILE_GROUP: usize = 2;

/// Widest plan the permutation scheduler handles: affine index maps are
/// stored as one `u32` bit-column per qubit. Plans wider than this (far
/// beyond any state that fits in memory) simply schedule without fusion.
const MAX_PERM_QUBITS: usize = 32;

/// Which executor [`Circuit::run_on`] and friends use. Release builds
/// have exactly one — compiled plans; the interpreter is the reference
/// the equivalence suites compare against.
#[cfg(any(test, feature = "testing"))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// The fused op-by-op reference interpreter (one pass per gate).
    Interp,
    /// Compiled plans with cache-blocked tile scheduling (what ships).
    Plan,
}

#[cfg(any(test, feature = "testing"))]
thread_local! {
    static LOCAL_EXEC: Cell<ExecMode> = const { Cell::new(ExecMode::Plan) };
}

#[cfg(any(test, feature = "testing"))]
impl ExecMode {
    /// The executor in effect on this thread: [`ExecMode::Plan`] unless
    /// inside a [`with_exec_mode`] override.
    pub fn current() -> ExecMode {
        LOCAL_EXEC.with(Cell::get)
    }
}

/// Runs `f` with a thread-local executor override — the hook the
/// equivalence tests use to compare both executors inside one process.
#[cfg(any(test, feature = "testing"))]
pub fn with_exec_mode<R>(mode: ExecMode, f: impl FnOnce() -> R) -> R {
    struct Restore(ExecMode);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_EXEC.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_EXEC.with(|c| c.replace(mode)));
    f()
}

/// Whether the scheduler fuses pure-permutation gates (CX rings, swaps,
/// X bands) into deferred index-permutation passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuseMode {
    /// Pass-fusion scheduling (the default): pure-permutation gates are
    /// composed into one affine index map and executed as a single
    /// gather pass; arithmetic gates with disjoint support hop past the
    /// pending permutation.
    On,
    /// The per-gate schedule: every bound gate executes as its own
    /// tile-block member or sweep, exactly as before fusion existed.
    Off,
}

static ENV_FUSE: OnceLock<FuseMode> = OnceLock::new();

thread_local! {
    /// 0 = inherit env, 1 = force on, 2 = force off.
    static LOCAL_FUSE: Cell<u8> = const { Cell::new(0) };
}

impl FuseMode {
    /// The fusion mode in effect on this thread: a [`with_fuse_mode`]
    /// override first, then `QSIM_FUSE`, then [`FuseMode::On`]. Resolved
    /// at *bind* time — a [`BoundPlan`]'s schedule is fixed once built.
    ///
    /// # Panics
    ///
    /// On the first read of a `QSIM_FUSE` value [`FuseMode::parse`]
    /// rejects: the knob is the unfused oracle, and a typo that silently
    /// ran the default schedule would leave an oracle run testing nothing.
    pub fn current() -> FuseMode {
        match LOCAL_FUSE.with(Cell::get) {
            1 => FuseMode::On,
            2 => FuseMode::Off,
            _ => *ENV_FUSE.get_or_init(|| {
                let value = std::env::var(FUSE_ENV).unwrap_or_default();
                FuseMode::parse(&value).unwrap_or_else(|msg| panic!("{msg}"))
            }),
        }
    }

    /// Parses a `QSIM_FUSE` value: `on` or empty (the default), `off` or
    /// `0`.
    ///
    /// # Errors
    ///
    /// Any other spelling, with the accepted ones listed.
    pub fn parse(value: &str) -> Result<FuseMode, String> {
        match value.trim() {
            "" | "on" => Ok(FuseMode::On),
            "off" | "0" => Ok(FuseMode::Off),
            other => Err(format!(
                "{FUSE_ENV}={other:?} (expected \"on\", \"off\" or \"0\", or leave it unset)"
            )),
        }
    }
}

/// Runs `f` with a thread-local fusion override — the hook the
/// equivalence tests use to pin both schedules inside one process.
pub fn with_fuse_mode<R>(mode: FuseMode, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_FUSE.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_FUSE.with(Cell::get);
    let _restore = Restore(prev);
    LOCAL_FUSE.with(|c| {
        c.set(match mode {
            FuseMode::On => 1,
            FuseMode::Off => 2,
        })
    });
    f()
}

/// The calling thread's executor overrides — its [`FuseMode`] and, in
/// test builds, its `ExecMode` — captured to be re-entered on a fan-out
/// worker. Both are thread-local, so a worker that did not re-enter them
/// would bind with the ambient `QSIM_FUSE` schedule and run the compiled
/// plan whatever its caller asked for.
#[derive(Clone, Copy, Debug)]
pub struct ThreadModes {
    fuse: FuseMode,
    #[cfg(any(test, feature = "testing"))]
    exec: ExecMode,
}

impl ThreadModes {
    /// The overrides in effect on this thread.
    pub fn current() -> ThreadModes {
        ThreadModes {
            fuse: FuseMode::current(),
            #[cfg(any(test, feature = "testing"))]
            exec: ExecMode::current(),
        }
    }

    /// Runs `f` under these overrides (on a worker: its caller's).
    pub fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        #[cfg(any(test, feature = "testing"))]
        let f = move || with_exec_mode(self.exec, f);
        with_fuse_mode(self.fuse, f)
    }
}

/// One compiled circuit op: the original gate plus everything knowable
/// without a parameter vector.
#[derive(Clone, Debug)]
struct OpRecord {
    gate: Gate,
    qubits: [usize; 2],
    arity: u8,
    param: Option<ParamRef>,
    /// Numeric matrix when the angle is compile-time known (fixed gates
    /// and `ParamRef::Fixed`); `None` for symbolic angles.
    fixed: Option<FixedMat>,
}

#[derive(Clone, Copy, Debug)]
enum FixedMat {
    One(Matrix2),
    Two(Matrix4),
}

/// A compiled, parameter-independent execution plan for one circuit.
///
/// Built once per ansatz by [`Circuit::compile`]; reused across every
/// epoch and every parameter-shift evaluation. Binding a parameter
/// vector ([`ExecPlan::bind`]) yields a [`BoundPlan`] ready to execute.
///
/// # Examples
///
/// ```
/// use qsim::circuit::Circuit;
/// use qsim::gate::Gate;
///
/// let mut c = Circuit::new(2);
/// c.push_fixed(Gate::H, &[0]);
/// c.push_sym(Gate::Ry(0.0), &[1], 0);
/// c.push_fixed(Gate::Cx, &[0, 1]);
///
/// let plan = c.compile().unwrap();
/// let a = plan.run(&[0.4]).unwrap();     // compile once …
/// let b = plan.run(&[0.9]).unwrap();     // … run many
/// assert_eq!(a.num_qubits(), b.num_qubits());
/// ```
#[derive(Clone, Debug)]
pub struct ExecPlan {
    num_qubits: usize,
    num_params: usize,
    records: Vec<OpRecord>,
    /// Operand qubits flattened in op order — the width pre-check at
    /// execution time reports the same qubit the interpreter would.
    op_qubits: Vec<usize>,
}

/// One gate of a bound plan: resolved matrix + precompiled kernel.
///
/// The `Two` variant is 4× the size of `One` (a 4×4 complex matrix);
/// bound gates live in one contiguous `Vec` that the executor scans
/// linearly, so boxing the large variant would trade cache locality for
/// nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug)]
enum BoundGate {
    One {
        q: usize,
        kernel: Kernel2,
        m: Matrix2,
    },
    Two {
        qa: usize,
        qb: usize,
        kernel: Kernel4,
        m: Matrix4,
    },
}

impl BoundGate {
    fn max_qubit(&self) -> usize {
        match *self {
            BoundGate::One { q, .. } => q,
            BoundGate::Two { qa, qb, .. } => qa.max(qb),
        }
    }

    /// Whether both gates act on the same qubits with the same matrix
    /// bits (the kernel is classified from the matrix, so it follows).
    /// Bits, not `==`: `-0.0 == 0.0`, and the two can round differently.
    fn same_bits(&self, other: &BoundGate) -> bool {
        let (qa, ma) = self.operands();
        let (qb, mb) = other.operands();
        qa == qb
            && ma.len() == mb.len()
            && ma
                .iter()
                .zip(mb)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// Operand qubits (a 1q gate repeats its one) and matrix entries.
    fn operands(&self) -> ([usize; 2], &[Complex64]) {
        match self {
            BoundGate::One { q, m, .. } => ([*q, *q], m.as_flattened()),
            BoundGate::Two { qa, qb, m, .. } => ([*qa, *qb], m.as_flattened()),
        }
    }

    /// Applies the gate to one contiguous region made of whole pair/quad
    /// blocks (a cache tile). `lvl` is the SIMD level the executor
    /// resolved on the calling thread before fanning out.
    fn run_region(&self, lvl: qsimd::Level, region: &mut [Complex64]) {
        match self {
            BoundGate::One { q, kernel, m } => kernel.run_region(lvl, m, region, 1usize << q),
            BoundGate::Two { qa, qb, kernel, m } => kernel.run_region4(lvl, m, region, *qa, *qb),
        }
    }

    /// Operand qubits as a bit mask (only called on plans narrow enough
    /// for the permutation scheduler, i.e. ≤ [`MAX_PERM_QUBITS`]).
    fn support_mask(&self) -> u32 {
        match *self {
            BoundGate::One { q, .. } => 1 << q,
            BoundGate::Two { qa, qb, .. } => (1 << qa) | (1 << qb),
        }
    }

    /// When the bound gate is a *pure* basis-state permutation — every
    /// nonzero matrix entry exactly `1` (CX, Swap, X, their products) —
    /// returns `(support mask, affine index map)`. Gates with any
    /// phase/scaling coefficient return `None`: a scalar multiply does
    /// not commute bit-wise with neighboring rotations, so only
    /// arithmetic-free moves are safe to defer.
    fn as_perm(&self, n: usize) -> Option<(u32, AffinePerm)> {
        let one = Complex64::ONE;
        match *self {
            BoundGate::One { q, kernel, m } => match kernel {
                // Fused-to-identity 1q chains: nothing moves.
                Kernel2::Diag if m[0][0] == one && m[1][1] == one => {
                    Some((0, AffinePerm::identity(n)))
                }
                // Unit anti-diagonal = X: flip one index bit.
                Kernel2::Anti if m[0][1] == one && m[1][0] == one => {
                    let mut p = AffinePerm::identity(n);
                    p.t = 1 << q;
                    Some((1 << q, p))
                }
                _ => None,
            },
            BoundGate::Two { qa, qb, kernel, .. } => {
                // Row map of the monomial: `new[i] = old[rows[i]]`.
                let rows: [u8; 4] = match kernel {
                    Kernel4::Diag(c) if c == [one; 4] => [0, 1, 2, 3],
                    Kernel4::Transposition {
                        i,
                        j,
                        ci,
                        cj,
                        fixed,
                        ..
                    } if ci == one && cj == one && fixed == [one, one] => {
                        let mut p = [0u8, 1, 2, 3];
                        p.swap(i as usize, j as usize);
                        p
                    }
                    _ => return None,
                };
                // Index map: the amplitude at sub-index `s` moves to `g(s)`
                // with `rows[g(s)] = s` — the inverse of the row map.
                let mut g = [0u8; 4];
                for (i, &r) in rows.iter().enumerate() {
                    g[r as usize] = i as u8;
                }
                Some((
                    (1u32 << qa) | (1u32 << qb),
                    AffinePerm::from_two(n, qa, qb, g),
                ))
            }
        }
    }
}

/// An accumulated basis-state permutation, kept in the affine normal
/// form `P(i) = L·i ⊕ t` over GF(2): `L` as one bit-mask column per
/// qubit, `t` a translation mask. Every pure-permutation gate is affine
/// (for two qubits, S₄ ≅ AGL(2,2) — *all* 24 sub-permutations qualify),
/// composition is closed, and the form makes two scheduler facts
/// checkable in O(1): whether a qubit is untouched (unit column, unit
/// row, clear `t` bit — the hop-past test) and whether the whole map is
/// the identity (cancelled rings cost nothing).
#[derive(Clone, Copy, Debug)]
struct AffinePerm {
    /// `cols[k]` = image of basis bit `e_k` under `L`.
    cols: [u32; MAX_PERM_QUBITS],
    /// Translation mask.
    t: u32,
    /// Meaningful columns (the plan width).
    n: usize,
}

impl AffinePerm {
    fn identity(n: usize) -> Self {
        let mut cols = [0u32; MAX_PERM_QUBITS];
        for (k, c) in cols.iter_mut().enumerate().take(n) {
            *c = 1 << k;
        }
        AffinePerm { cols, t: 0, n }
    }

    fn is_identity(&self) -> bool {
        self.t == 0
            && self
                .cols
                .iter()
                .enumerate()
                .take(self.n)
                .all(|(k, &c)| c == 1 << k)
    }

    /// `L·x` (linear part only).
    fn lin(&self, x: u32) -> u32 {
        let mut r = 0u32;
        let mut rest = x;
        while rest != 0 {
            let k = rest.trailing_zeros() as usize;
            r ^= self.cols[k];
            rest &= rest - 1;
        }
        r
    }

    /// The composition applying `prev` first, then `self`.
    fn after(&self, prev: &AffinePerm) -> AffinePerm {
        let mut cols = [0u32; MAX_PERM_QUBITS];
        for (c, p) in cols.iter_mut().zip(prev.cols.iter()).take(self.n) {
            *c = self.lin(*p);
        }
        AffinePerm {
            cols,
            t: self.lin(prev.t) ^ self.t,
            n: self.n,
        }
    }

    /// The affine map of one two-qubit sub-permutation `g` (matrix-basis
    /// bit 0 ↔ `qa`, bit 1 ↔ `qb`, matching the kernel quad layout
    /// `offs = [0, ba, bb, ba|bb]`). Decomposed as `c = g(0)`,
    /// `A·e₁ = g(1) ⊕ c`, `A·e₂ = g(2) ⊕ c`; `g(3) = g(1) ⊕ g(2) ⊕ g(0)`
    /// holds for every permutation of GF(2)², so the form is exact.
    fn from_two(n: usize, qa: usize, qb: usize, g: [u8; 4]) -> AffinePerm {
        let mb = |v: u8| -> u32 {
            let mut m = 0;
            if v & 1 != 0 {
                m |= 1 << qa;
            }
            if v & 2 != 0 {
                m |= 1 << qb;
            }
            m
        };
        let c = g[0];
        let mut p = AffinePerm::identity(n);
        p.cols[qa] = mb(g[1] ^ c);
        p.cols[qb] = mb(g[2] ^ c);
        p.t = mb(c);
        p
    }

    /// Inverts the map into an executable gather spec (`out[j] =
    /// in[P⁻¹(j)]`) by GF(2) Gauss–Jordan elimination. The linear part
    /// is a composition of invertible gate maps, so a pivot always
    /// exists.
    fn inverse_spec(&self) -> PermSpec {
        let n = self.n;
        // Row view of `L` (bit k of `rows[r]` = L[r][k]), augmented with
        // the identity.
        let mut rows = [0u32; MAX_PERM_QUBITS];
        let mut aug = [0u32; MAX_PERM_QUBITS];
        for r in 0..n {
            for (k, &c) in self.cols.iter().enumerate().take(n) {
                if c >> r & 1 != 0 {
                    rows[r] |= 1 << k;
                }
            }
            aug[r] = 1 << r;
        }
        for c in 0..n {
            let pivot = (c..n)
                .find(|&r| rows[r] >> c & 1 != 0)
                .expect("gate permutation maps are invertible");
            rows.swap(c, pivot);
            aug.swap(c, pivot);
            for r in 0..n {
                if r != c && rows[r] >> c & 1 != 0 {
                    rows[r] ^= rows[c];
                    aug[r] ^= aug[c];
                }
            }
        }
        // `aug` now holds L⁻¹ in row view; store it column-wise for the
        // gather's incremental addressing.
        let mut inv_cols = [0u32; MAX_PERM_QUBITS];
        for (r, &a) in aug.iter().enumerate().take(n) {
            for (k, ic) in inv_cols.iter_mut().enumerate().take(n) {
                if a >> k & 1 != 0 {
                    *ic |= 1 << r;
                }
            }
        }
        let mut spec = PermSpec {
            inv_cols,
            inv_t: 0,
            n: n as u32,
        };
        spec.inv_t = spec.lin_inv(self.t);
        spec
    }
}

/// One executable permutation pass: the *inverse* affine index map, so
/// execution is a pure output-ordered gather — sequential writes, no
/// arithmetic, bit-exact by construction at any thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PermSpec {
    /// `inv_cols[k]` = image of `e_k` under `L⁻¹`.
    inv_cols: [u32; MAX_PERM_QUBITS],
    /// `P⁻¹(j) = L⁻¹·j ⊕ inv_t` (with `inv_t = L⁻¹·t`).
    inv_t: u32,
    /// Plan bits the map covers; higher state bits pass through
    /// untouched (states may be wider than the plan).
    n: u32,
}

impl PermSpec {
    /// `L⁻¹·x` over the covered bits.
    fn lin_inv(&self, x: u32) -> u32 {
        let mut r = 0u32;
        let mut rest = x;
        while rest != 0 {
            let k = rest.trailing_zeros() as usize;
            r ^= self.inv_cols[k];
            rest &= rest - 1;
        }
        r
    }

    /// Source index feeding output index `j`, identity-extended above
    /// the plan width.
    fn src(&self, j: usize) -> usize {
        let mask = (1usize << self.n) - 1;
        let low = (j & mask) as u32;
        (j & !mask) | (self.lin_inv(low) ^ self.inv_t) as usize
    }
}

thread_local! {
    /// Reusable gather buffer for permutation passes. It is swapped with
    /// the state's amplitude vector after each pass, so steady-state
    /// permutes (training loops) allocate nothing.
    static PERM_SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// Executes one permutation pass: gathers `out[j] = in[P⁻¹(j)]` into the
/// thread-local scratch buffer, then swaps buffers. Output-ordered, so
/// writes stream sequentially and parallel workers own disjoint output
/// chunks; the source index advances incrementally — stepping `j → j+1`
/// flips the low `tz(j+1)+1` bits, so the source moves by the XOR-prefix
/// of the inverse columns instead of a fresh matrix-vector product.
fn run_permute(state: &mut StateVector, spec: &PermSpec) {
    let amps = state.amplitudes_mut();
    let len = amps.len();
    let bits = len.trailing_zeros() as usize;
    // prefix[k] = inv_cols[0] ⊕ … ⊕ inv_cols[k], identity-extended above
    // the plan width. prefix[bits] stays 0: it is only indexed on the
    // final wrap (j+1 == a power of two ≥ the chunk end).
    let mut prefix = [0usize; 65];
    let mut acc = 0usize;
    for (k, p) in prefix.iter_mut().enumerate().take(bits) {
        acc ^= if k < spec.n as usize {
            spec.inv_cols[k] as usize
        } else {
            1usize << k
        };
        *p = acc;
    }
    let threads = kernel_threads(len);
    PERM_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        // The gather overwrites every slot, so the zero-fill only matters
        // when the buffer grows; steady-state permutes skip the memset.
        if scratch.len() != len {
            scratch.clear();
            scratch.resize(len, Complex64::ZERO);
        }
        if threads <= 1 {
            gather_permuted(amps, &mut scratch, 0, spec, &prefix);
        } else {
            // Gathers read the shared input slice and write disjoint
            // output chunks — moves, never arithmetic, so any chunking
            // is trivially bit-exact.
            let chunk = len.div_ceil(threads);
            let input: &[Complex64] = amps;
            let items: Vec<(usize, &mut [Complex64])> = scratch
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, c)| (i * chunk, c))
                .collect();
            qpar::for_each_threads(threads, items, |(start, out)| {
                gather_permuted(input, out, start, spec, &prefix);
            });
        }
        std::mem::swap(amps, &mut *scratch);
    });
}

/// Gathers one output chunk starting at global index `start`.
fn gather_permuted(
    input: &[Complex64],
    out: &mut [Complex64],
    start: usize,
    spec: &PermSpec,
    prefix: &[usize; 65],
) {
    let mut src = spec.src(start);
    let mut j = start;
    for slot in out.iter_mut() {
        *slot = input[src];
        j += 1;
        src ^= prefix[j.trailing_zeros() as usize];
    }
}

/// One step of the schedule. `Tile`/`Sweep` index into [`BoundPlan`]'s
/// `sched` vector (execution order — distinct from bound order once
/// gates hop past deferred permutations).
///
/// `Permute` inlines its spec: it is the large variant, but steps live
/// in one short linear-scanned `Vec` and the spec is read every
/// execution, so boxing would trade locality for a per-bind allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum Step {
    /// A run of gates whose operands all fit one tile: applied tile by
    /// tile in a single sweep over the state.
    Tile(Range<u32>),
    /// A gate touching a high qubit (or standing alone): one classic
    /// whole-array pass.
    Sweep(u32),
    /// One deferred basis-permutation pass (a fused CX ring / swap /
    /// X-band accumulation): a single gather sweep.
    Permute(PermSpec),
}

impl Step {
    /// Atoms the step applies: one per gate of a tile block, else one.
    fn len(&self) -> usize {
        match self {
            Step::Tile(r) => (r.end - r.start) as usize,
            Step::Sweep(_) | Step::Permute(_) => 1,
        }
    }
}

/// One atom of a binding, in execution order: a gate a tile block or sweep
/// applies, or one permutation pass.
#[derive(Clone, Copy)]
enum Atom<'a> {
    Gate(&'a BoundGate),
    Permute(&'a PermSpec),
}

impl Atom<'_> {
    /// Whether executing either atom computes the same bits.
    fn same_as(&self, other: &Atom<'_>) -> bool {
        match (self, other) {
            (Atom::Gate(a), Atom::Gate(b)) => a.same_bits(b),
            (Atom::Permute(a), Atom::Permute(b)) => a == b,
            _ => false,
        }
    }

    /// Amplitude bytes the atom moves under the
    /// [`BoundPlan::amp_bytes_swept`] model.
    fn bytes(&self, amps: u64) -> u64 {
        match self {
            Atom::Gate(g) => gate_bytes(g, amps),
            Atom::Permute(_) => 32 * amps,
        }
    }
}

/// Executed plan-mode passes by step kind, and their wall time. The
/// counters mirror the deterministic traffic model ([`BoundPlan::passes`])
/// with live execution counts; `QOBS=off` skips all of them.
static OBS_SWEEP_PASSES: qobs::LazyCounter =
    qobs::LazyCounter::new("qsim_passes_total{kind=\"sweep\"}");
static OBS_TILE_PASSES: qobs::LazyCounter =
    qobs::LazyCounter::new("qsim_passes_total{kind=\"tile\"}");
static OBS_PERMUTE_PASSES: qobs::LazyCounter =
    qobs::LazyCounter::new("qsim_passes_total{kind=\"permute\"}");
static OBS_SWEEP_NS: qobs::LazyHistogram = qobs::LazyHistogram::new("qsim_sweep_ns");
static OBS_TILE_NS: qobs::LazyHistogram = qobs::LazyHistogram::new("qsim_tile_ns");
static OBS_PERMUTE_NS: qobs::LazyHistogram = qobs::LazyHistogram::new("qsim_permute_ns");
static OBS_AMP_BYTES: qobs::LazyCounter = qobs::LazyCounter::new("qsim_amp_bytes_swept_total");

/// A plan bound to a concrete parameter vector: fused matrices, kernel
/// descriptors and the pass schedule, ready to execute any number of
/// times — and to *rebind* in place ([`BoundPlan::rebind`]), so
/// bind-heavy loops (parameter-shift training does `2·sites + 1` binds
/// per step) stop paying per-bind allocation.
#[derive(Clone, Debug)]
pub struct BoundPlan<'p> {
    plan: &'p ExecPlan,
    /// Bound gates in bound (interpreter) order — the `interp`-mode
    /// oracle walks exactly this sequence, fusion or not.
    gates: Vec<BoundGate>,
    /// Gates in execution order (pure-permutation gates elided when the
    /// schedule fused them into `Step::Permute` passes).
    sched: Vec<BoundGate>,
    steps: Vec<Step>,
    /// Whether this binding was scheduled with pass fusion (resolved
    /// from [`FuseMode::current`] at bind time).
    fused: bool,
    /// Bind scratch: pending 1q fusion state, reused across rebinds.
    dense: Vec<Option<Matrix2>>,
    diag: Vec<Option<Matrix2>>,
}

impl Circuit {
    /// Compiles the circuit into a parameter-independent [`ExecPlan`]:
    /// structural validation and fixed-angle matrix materialization
    /// happen here, once, instead of on every run.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem ([`Circuit::validate`]).
    pub fn compile(&self) -> Result<ExecPlan, CircuitError> {
        self.validate(self.num_params())?;
        let mut records = Vec::with_capacity(self.len());
        let mut op_qubits = Vec::new();
        for op in self.ops() {
            let arity = op.gate.arity() as u8;
            let qubits = match arity {
                1 => [op.qubits[0], 0],
                _ => [op.qubits[0], op.qubits[1]],
            };
            op_qubits.extend_from_slice(&op.qubits);
            // Fixed angles resolve at compile time; `with_param` on a
            // non-parametrized gate is the identity, so the `Fixed(v)`
            // arm covers both shapes run_on would produce.
            let fixed = match op.param {
                Some(ParamRef::Sym { .. }) => None,
                Some(ParamRef::Fixed(v)) => Some(materialize(op.gate.with_param(v), arity)),
                None => Some(materialize(op.gate, arity)),
            };
            records.push(OpRecord {
                gate: op.gate,
                qubits,
                arity,
                param: op.param,
                fixed,
            });
        }
        Ok(ExecPlan {
            num_qubits: self.num_qubits(),
            num_params: self.num_params(),
            records,
            op_qubits,
        })
    }
}

fn materialize(gate: Gate, arity: u8) -> FixedMat {
    match arity {
        1 => FixedMat::One(gate.matrix2()),
        _ => FixedMat::Two(gate.matrix4()),
    }
}

impl ExecPlan {
    /// Register width the plan was compiled for.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of symbolic parameters the plan reads.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Number of compiled op records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the plan holds no operations.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Binds a parameter vector: resolves angles, fuses, classifies and
    /// schedules. The result executes any number of times.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ParamOutOfRange`] when the vector is shorter than
    /// the plan's parameter space, [`CircuitError::State`] on duplicate
    /// two-qubit operands.
    pub fn bind(&self, params: &[f64]) -> Result<BoundPlan<'_>, CircuitError> {
        let mut bound = BoundPlan::empty(self);
        bound.rebind(params)?;
        Ok(bound)
    }

    /// Executes the plan on `|0…0⟩` with the given binding.
    ///
    /// # Errors
    ///
    /// As [`ExecPlan::bind`] plus execution-time state errors.
    pub fn run(&self, params: &[f64]) -> Result<StateVector, CircuitError> {
        let mut state = StateVector::zero_state(self.num_qubits);
        self.bind(params)?.run_on(&mut state)?;
        Ok(state)
    }

    /// Binds and executes on an existing state in place (one-shot
    /// convenience; loops that rebind should hold the [`BoundPlan`]).
    ///
    /// # Errors
    ///
    /// As [`ExecPlan::bind`] plus execution-time state errors.
    pub fn run_on(&self, state: &mut StateVector, params: &[f64]) -> Result<(), CircuitError> {
        self.bind(params)?.run_on(state)
    }

    /// An empty, reusable [`BoundPlan`] shell whose buffers survive
    /// across [`BoundPlan::rebind`] / [`BoundPlan::rebind_shifted`]
    /// calls — the bind-scratch for loops that bind many parameter
    /// vectors against one plan (a parameter-shift gradient performs
    /// `2·sites + 1` binds per step). The shell holds no binding until
    /// the first rebind; running it executes zero gates.
    pub fn bind_scratch(&self) -> BoundPlan<'_> {
        BoundPlan::empty(self)
    }
}

impl<'p> BoundPlan<'p> {
    /// An unbound shell holding reusable buffers; filled by
    /// [`BoundPlan::rebind`].
    fn empty(plan: &'p ExecPlan) -> Self {
        BoundPlan {
            plan,
            gates: Vec::with_capacity(plan.records.len()),
            sched: Vec::with_capacity(plan.records.len()),
            steps: Vec::new(),
            fused: false,
            dense: vec![None; plan.num_qubits],
            diag: vec![None; plan.num_qubits],
        }
    }

    /// Re-binds this plan to a new parameter vector **in place**,
    /// reusing every buffer of the previous binding — the allocation-free
    /// path for bind-heavy loops (a parameter-shift gradient rebinds
    /// `2·sites + 1` times per step).
    ///
    /// # Errors
    ///
    /// As [`ExecPlan::bind`]. On error the binding is left cleared, not
    /// half-built.
    pub fn rebind(&mut self, params: &[f64]) -> Result<(), CircuitError> {
        self.rebind_impl(params, None)
    }

    /// [`BoundPlan::rebind`] with the angle of the op at `op_index`
    /// offset by `delta` (the parameter-shift patch).
    ///
    /// # Errors
    ///
    /// As [`ExecPlan::bind`].
    pub fn rebind_shifted(
        &mut self,
        params: &[f64],
        op_index: usize,
        delta: f64,
    ) -> Result<(), CircuitError> {
        self.rebind_impl(params, Some((op_index, delta)))
    }

    /// The bind-time twin of the interpreter's fused executor: identical
    /// fusion decisions and matrix-product order, but emitting bound
    /// gates instead of touching a state.
    fn rebind_impl(
        &mut self,
        params: &[f64],
        op_shift: Option<(usize, f64)>,
    ) -> Result<(), CircuitError> {
        let plan = self.plan;
        self.gates.clear();
        self.sched.clear();
        self.steps.clear();
        // Mirror `Circuit::validate(params.len())`'s parameter check (the
        // structural half already ran at compile time).
        for (i, rec) in plan.records.iter().enumerate() {
            if let Some(ParamRef::Sym { index, .. }) = rec.param {
                if index >= params.len() {
                    return Err(CircuitError::ParamOutOfRange {
                        op_index: i,
                        param_index: index,
                        num_params: params.len(),
                    });
                }
            }
        }
        let gates = &mut self.gates;
        // Pending 1q work per qubit, factored as `diag · dense` exactly
        // like the interpreter (see `Circuit::run_on` for why the
        // factoring preserves cheap kernel structure). The buffers hold
        // `None` everywhere between bindings (every path below drains
        // them), so rebinding needs no reset.
        let dense = &mut self.dense;
        let diag = &mut self.diag;
        debug_assert!(dense.iter().chain(diag.iter()).all(Option::is_none));
        let emit2 = |q: usize, m: Matrix2, gates: &mut Vec<BoundGate>| {
            gates.push(BoundGate::One {
                q,
                kernel: Kernel2::classify(&m),
                m,
            });
        };
        for (i, rec) in plan.records.iter().enumerate() {
            let shift = match op_shift {
                Some((op, delta)) if op == i => Some(delta),
                _ => None,
            };
            match rec.arity {
                1 => {
                    let q = rec.qubits[0];
                    let m = resolve2(rec, params, shift);
                    if is_diag2(&m) {
                        diag[q] = Some(match diag[q] {
                            Some(prev) => mat2_mul(&m, &prev),
                            None => m,
                        });
                    } else {
                        let m = match diag[q].take() {
                            Some(g) => mat2_mul(&m, &g),
                            None => m,
                        };
                        dense[q] = Some(match dense[q] {
                            Some(prev) => mat2_mul(&m, &prev),
                            None => m,
                        });
                    }
                }
                _ => {
                    let (a, b) = (rec.qubits[0], rec.qubits[1]);
                    if a == b {
                        // Drain the pending-1q buffers so a failed rebind
                        // leaves them clean for the next one.
                        dense.fill(None);
                        diag.fill(None);
                        return Err(CircuitError::State(StateError::DuplicateQubits(a)));
                    }
                    let mut m4 = resolve4(rec, params, shift);
                    let dense4 = is_dense4(&m4);
                    let pure_perm = is_unit_perm4(&m4);
                    for (q, bit) in [(a, 0usize), (b, 1usize)] {
                        match (dense[q].take(), diag[q].take()) {
                            (Some(d), g) => {
                                if dense4 {
                                    let whole = match g {
                                        Some(g) => mat2_mul(&g, &d),
                                        None => d,
                                    };
                                    m4 = mat4_fold1q(&m4, &whole, bit);
                                } else if pure_perm {
                                    // Mirror the interpreter: pure
                                    // permutations stay coefficient-free
                                    // so the scheduler can defer them.
                                    let whole = match g {
                                        Some(g) => mat2_mul(&g, &d),
                                        None => d,
                                    };
                                    emit2(q, whole, gates);
                                } else {
                                    emit2(q, d, gates);
                                    if let Some(g) = g {
                                        m4 = mat4_fold1q(&m4, &g, bit);
                                    }
                                }
                            }
                            (None, Some(g)) => {
                                if pure_perm {
                                    emit2(q, g, gates);
                                } else {
                                    m4 = mat4_fold1q(&m4, &g, bit);
                                }
                            }
                            (None, None) => {}
                        }
                    }
                    gates.push(BoundGate::Two {
                        qa: a,
                        qb: b,
                        kernel: Kernel4::classify(&m4),
                        m: m4,
                    });
                }
            }
        }
        for q in 0..plan.num_qubits {
            match (dense[q].take(), diag[q].take()) {
                (Some(d), Some(g)) => emit2(q, mat2_mul(&g, &d), gates),
                (Some(d), None) => emit2(q, d, gates),
                (None, Some(g)) => emit2(q, g, gates),
                (None, None) => {}
            }
        }
        self.fused = FuseMode::current() == FuseMode::On && plan.num_qubits <= MAX_PERM_QUBITS;
        self.schedule();
        Ok(())
    }

    /// Builds the pass schedule from the bound gate sequence.
    ///
    /// Without fusion: consecutive gates whose operands all fit one
    /// `2^TILE_QUBITS` tile group into tile blocks; everything else
    /// (high-qubit gates, singleton runs) executes as a whole-array
    /// sweep — the classic schedule.
    ///
    /// With fusion, two extra rules, both arithmetic-free and therefore
    /// bit-exact:
    ///
    /// * **Pure permutations defer.** A gate that only moves amplitudes
    ///   ([`BoundGate::as_perm`]) is composed into one pending affine
    ///   index map instead of being scheduled — an entangler ring
    ///   becomes a single map.
    /// * **Disjoint arithmetic hops past.** An arithmetic gate whose
    ///   operands the pending map does not touch is scheduled *before*
    ///   the map: the map is the identity on the gate's qubits, so it
    ///   carries the gate's amplitude pairs to pairs with identical
    ///   values and roles — reordering changes no computed bit. A gate
    ///   that *does* overlap flushes the map as one [`Step::Permute`]
    ///   gather pass first.
    ///
    /// On ring ansätze this turns `N` rotations + `N` entanglers per
    /// layer from `2N` gate passes into `N` rotation visits + 1
    /// permutation pass. Maps that cancel to the identity (e.g.
    /// `Swap·Swap`) are dropped outright.
    fn schedule(&mut self) {
        let nq = self.plan.num_qubits;
        let fused = self.fused;
        let gates = &self.gates;
        let sched = &mut self.sched;
        let steps = &mut self.steps;
        let mut run_start: Option<u32> = None;
        let close_run = |start: &mut Option<u32>, end: u32, steps: &mut Vec<Step>| {
            if let Some(s) = start.take() {
                if (end - s) as usize >= MIN_TILE_GROUP {
                    steps.push(Step::Tile(s..end));
                } else {
                    for g in s..end {
                        steps.push(Step::Sweep(g));
                    }
                }
            }
        };
        let mut perm = AffinePerm::identity(nq);
        let mut touched: u32 = 0;
        for gate in gates {
            if fused {
                if let Some((support, gp)) = gate.as_perm(nq) {
                    perm = gp.after(&perm);
                    touched |= support;
                    continue;
                }
            }
            if touched != 0 && gate.support_mask() & touched != 0 {
                close_run(&mut run_start, sched.len() as u32, steps);
                if !perm.is_identity() {
                    steps.push(Step::Permute(perm.inverse_spec()));
                }
                perm = AffinePerm::identity(nq);
                touched = 0;
            }
            let idx = sched.len() as u32;
            sched.push(*gate);
            if gate.max_qubit() < TILE_QUBITS {
                run_start.get_or_insert(idx);
            } else {
                close_run(&mut run_start, idx, steps);
                steps.push(Step::Sweep(idx));
            }
        }
        close_run(&mut run_start, sched.len() as u32, steps);
        if !perm.is_identity() {
            steps.push(Step::Permute(perm.inverse_spec()));
        }
    }
}

/// Resolves one 1q record's numeric matrix, reusing the compile-time
/// matrix when no angle resolution is needed.
fn resolve2(rec: &OpRecord, params: &[f64], shift: Option<f64>) -> Matrix2 {
    match (shift, rec.fixed) {
        (None, Some(FixedMat::One(m))) => m,
        _ => {
            let angle =
                rec.param.map(|p| p.resolve(params)).unwrap_or_default() + shift.unwrap_or(0.0);
            match rec.param {
                Some(_) => rec.gate.with_param(angle).matrix2(),
                None => rec.gate.matrix2(),
            }
        }
    }
}

/// Resolves one 2q record's numeric matrix (see [`resolve2`]).
fn resolve4(rec: &OpRecord, params: &[f64], shift: Option<f64>) -> Matrix4 {
    match (shift, rec.fixed) {
        (None, Some(FixedMat::Two(m))) => m,
        _ => {
            let angle =
                rec.param.map(|p| p.resolve(params)).unwrap_or_default() + shift.unwrap_or(0.0);
            match rec.param {
                Some(_) => rec.gate.with_param(angle).matrix4(),
                None => rec.gate.matrix4(),
            }
        }
    }
}

impl BoundPlan<'_> {
    /// Register width of the underlying plan.
    pub fn num_qubits(&self) -> usize {
        self.plan.num_qubits
    }

    /// Number of bound (post-fusion) gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of full passes over the state this plan will make — the
    /// figure tiling minimizes (one per tile block + one per sweep gate
    /// + one per fused permutation).
    pub fn num_passes(&self) -> usize {
        self.steps.len()
    }

    /// Whether this binding was scheduled with pass fusion.
    pub fn fused(&self) -> bool {
        self.fused
    }

    /// Per-gate pass count under the classic one-sweep-per-gate traffic
    /// model: one pass per scheduled arithmetic gate visit plus one per
    /// fused permutation pass. This is the counter pass fusion drives
    /// down — a rotation band + entangler ring layer costs `2N` here
    /// without fusion and `N + 1` with it — and the figure `qbench`
    /// reports as `qsim.plan.passes_per_run`. It is also the binding's
    /// atom count: the executor's unit, and what
    /// [`BoundPlan::shared_prefix`] counts.
    pub fn passes(&self) -> usize {
        self.steps.iter().map(Step::len).sum()
    }

    /// Deterministic model of the amplitude bytes one plan-mode
    /// execution moves on a `num_qubits()`-wide state: 32 bytes per
    /// amplitude a kernel reads *and* writes, with structure credits —
    /// diagonal kernels only touch the rows whose coefficient is not
    /// exactly 1, transpositions move half of each quad, a permutation
    /// pass reads and writes the whole array once. A counter, not a
    /// timer: it depends only on the schedule, so tests can pin it.
    pub fn amp_bytes_swept(&self) -> u64 {
        self.amp_bytes(0..self.passes())
    }

    /// [`BoundPlan::amp_bytes_swept`] of the atoms in `atoms` only.
    fn amp_bytes(&self, atoms: Range<usize>) -> u64 {
        let amps = 1u64 << self.plan.num_qubits;
        self.atoms()
            .skip(atoms.start)
            .take(atoms.len())
            .map(|a| a.bytes(amps))
            .sum()
    }

    /// The binding's atoms in execution order; [`BoundPlan::passes`]
    /// counts them.
    fn atoms(&self) -> impl Iterator<Item = Atom<'_>> {
        self.steps.iter().flat_map(move |step| {
            let (gates, perm) = match step {
                Step::Tile(r) => (&self.sched[r.start as usize..r.end as usize], None),
                Step::Sweep(g) => (std::slice::from_ref(&self.sched[*g as usize]), None),
                Step::Permute(spec) => (&[][..], Some(spec)),
            };
            gates.iter().map(Atom::Gate).chain(perm.map(Atom::Permute))
        })
    }

    /// The number of leading atoms this binding and `other` execute
    /// identically, bit for bit: the same qubits and matrix bits for a
    /// gate, the same map for a permutation pass. Running that many atoms
    /// of either binding leaves the same state; [`PrefixCursor`] resumes
    /// from it.
    pub fn shared_prefix(&self, other: &BoundPlan<'_>) -> usize {
        self.atoms()
            .zip(other.atoms())
            .take_while(|(a, b)| a.same_as(b))
            .count()
    }

    /// Executes the bound plan on an existing state in place.
    ///
    /// # Errors
    ///
    /// [`StateError::QubitOutOfRange`] (wrapped) when the state is
    /// narrower than an operand qubit — checked up front for every op,
    /// like the interpreter, so a failing run never half-evolves the
    /// state.
    pub fn run_on(&self, state: &mut StateVector) -> Result<(), CircuitError> {
        self.run_atoms(state, 0..self.passes())
    }

    /// The one executor loop: runs the atoms in `atoms` (in execution
    /// order) on `state`. Steps outside the range are skipped; a tile
    /// block the range cuts runs its slice of gates tile by tile.
    ///
    /// # Errors
    ///
    /// As [`BoundPlan::run_on`].
    fn run_atoms(&self, state: &mut StateVector, atoms: Range<usize>) -> Result<(), CircuitError> {
        let width = state.num_qubits();
        for &q in &self.plan.op_qubits {
            if q >= width {
                return Err(CircuitError::State(StateError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: width,
                }));
            }
        }
        // Reference mode: every gate as its own whole-array sweep.
        #[cfg(any(test, feature = "testing"))]
        if ExecMode::current() == ExecMode::Interp {
            assert_eq!(
                atoms,
                0..self.passes(),
                "the interpreter runs whole bindings"
            );
            for gate in &self.gates {
                self.sweep(state, gate);
            }
            return Ok(());
        }
        // One mode load for the whole execution; `QOBS=off` pays nothing
        // per pass.
        let obs = qobs::enabled();
        let mut end = 0;
        for step in &self.steps {
            let first = end;
            end += step.len();
            if end <= atoms.start {
                continue;
            }
            if first >= atoms.end {
                break;
            }
            let started = obs.then(std::time::Instant::now);
            let (passes, ns) = match step {
                Step::Sweep(g) => {
                    self.sweep(state, &self.sched[*g as usize]);
                    (&OBS_SWEEP_PASSES, &OBS_SWEEP_NS)
                }
                Step::Tile(r) => {
                    let lo = r.start as usize + atoms.start.max(first) - first;
                    let hi = r.start as usize + atoms.end.min(end) - first;
                    self.run_tiled(state, &self.sched[lo..hi]);
                    (&OBS_TILE_PASSES, &OBS_TILE_NS)
                }
                Step::Permute(spec) => {
                    run_permute(state, spec);
                    (&OBS_PERMUTE_PASSES, &OBS_PERMUTE_NS)
                }
            };
            if let Some(started) = started {
                passes.inc();
                ns.record_duration(started.elapsed());
            }
        }
        if obs {
            // The live counterpart of the deterministic traffic model the
            // benches stamp: bytes actually swept by this execution.
            OBS_AMP_BYTES.add(self.amp_bytes(atoms));
        }
        Ok(())
    }

    /// One whole-array pass through the classic threaded kernels, with
    /// the bind-time kernel descriptor (no per-call reclassification).
    fn sweep(&self, state: &mut StateVector, gate: &BoundGate) {
        match gate {
            BoundGate::One { q, kernel, m } => state.apply_matrix2_with(*kernel, m, *q),
            BoundGate::Two { qa, qb, kernel, m } => state.apply_matrix4_with(*kernel, m, *qa, *qb),
        }
    }

    /// One sweep over the state applying a whole tile block: every tile
    /// is loaded into cache once and receives all gates of the block.
    fn run_tiled(&self, state: &mut StateVector, gates: &[BoundGate]) {
        let amps = state.amplitudes_mut();
        let n = amps.len();
        let tile = (1usize << TILE_QUBITS).min(n);
        // SIMD level resolved here, on the calling thread, before any
        // fan-out — its workers cannot see the caller's thread-local
        // override.
        let lvl = qsimd::active();
        let threads = kernel_threads(n);
        let n_tiles = n / tile;
        if threads <= 1 || n_tiles <= 1 {
            for region in amps.chunks_mut(tile) {
                run_block_region(gates, region, tile, lvl);
            }
            return;
        }
        // Whole tiles per worker stripe; per-tile arithmetic is
        // independent, so any stripe assignment is bit-exact.
        let stripe = n_tiles.div_ceil(threads).max(1) * tile;
        let items: Vec<&mut [Complex64]> = amps.chunks_mut(stripe).collect();
        qpar::for_each_threads(threads, items, |chunk| {
            run_block_region(gates, chunk, tile, lvl);
        });
    }
}

/// Amplitude bytes one whole-array visit of `gate` moves under the
/// [`BoundPlan::amp_bytes_swept`] model (32 bytes = one `Complex64`
/// read + write).
fn gate_bytes(gate: &BoundGate, amps: u64) -> u64 {
    let one = Complex64::ONE;
    match gate {
        BoundGate::One { kernel, m, .. } => match kernel {
            // Each non-unit diagonal entry scales half the array.
            Kernel2::Diag => {
                let moving = (m[0][0] != one) as u64 + (m[1][1] != one) as u64;
                moving * (amps / 2) * 32
            }
            _ => amps * 32,
        },
        BoundGate::Two { kernel, .. } => match kernel {
            // Each non-unit diagonal entry scales a quarter of the array.
            Kernel4::Diag(d) => d.iter().filter(|c| **c != one).count() as u64 * (amps / 4) * 32,
            // The swapped pair always moves (half the array); fixed rows
            // only when scaled.
            Kernel4::Transposition { fixed, .. } => {
                (amps / 2) * 32
                    + fixed.iter().filter(|c| **c != one).count() as u64 * (amps / 4) * 32
            }
            _ => amps * 32,
        },
    }
}

/// Applies all gates of a block to a contiguous region, tile by tile.
fn run_block_region(gates: &[BoundGate], region: &mut [Complex64], tile: usize, lvl: qsimd::Level) {
    for tile_region in region.chunks_mut(tile) {
        for gate in gates {
            gate.run_region(lvl, tile_region);
        }
    }
}

/// A forward checkpoint on one *base* binding's atom sequence: the state
/// after its first few atoms. Other bindings of the same plan (the ±δ
/// shifts of the base's parameter vector) that share those atoms
/// ([`BoundPlan::shared_prefix`]) start from a copy of it instead of from
/// the input state, and run only their own remaining atoms.
///
/// The cursor only walks forward along the base; an evaluation that shares
/// fewer atoms than the cursor has run resets it to the input state. A
/// cursor follows one base binding and one input state: a caller that
/// rebinds the base or changes the input starts a new cursor.
#[derive(Debug, Default)]
pub struct PrefixCursor {
    /// `None` until the first evaluation loads the input state.
    state: Option<StateVector>,
    /// Base atoms `state` has run.
    at: usize,
}

impl PrefixCursor {
    /// A cursor that has run nothing; the first [`PrefixCursor::resume`]
    /// loads its input state.
    pub fn new() -> Self {
        PrefixCursor::default()
    }

    /// Leaves in `work` exactly the state `target.run_on` leaves on the
    /// cursor's input state, bit for bit. The cursor first advances along
    /// `base` to the prefix the two bindings share, then `work` gets a
    /// copy of it and runs only `target`'s atoms after the prefix.
    /// `input` builds the input state; it is called on the first
    /// evaluation and on a reset.
    ///
    /// Returns the number of `target` atoms that did not run on `work`
    /// (the shared prefix); the cursor's own advance does not count.
    /// Under the test-only interpreter it makes a full oracle run of
    /// `target` from `input()` and returns 0.
    ///
    /// # Errors
    ///
    /// `input`'s error, or [`BoundPlan::run_on`]'s.
    pub fn resume<E: From<CircuitError>>(
        &mut self,
        base: &BoundPlan<'_>,
        target: &BoundPlan<'_>,
        work: &mut StateVector,
        input: impl FnOnce() -> Result<StateVector, E>,
    ) -> Result<usize, E> {
        #[cfg(any(test, feature = "testing"))]
        if ExecMode::current() == ExecMode::Interp {
            *work = input()?;
            target.run_on(work)?;
            return Ok(0);
        }
        let shared = base.shared_prefix(target);
        if self.state.is_none() || self.at > shared {
            self.state = Some(input()?);
            self.at = 0;
        }
        let state = self.state.as_mut().expect("loaded above");
        base.run_atoms(state, self.at..shared)?;
        self.at = shared;
        work.clone_from(state);
        target.run_atoms(work, shared..target.passes())?;
        Ok(shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    const EPS: f64 = 1e-12;

    fn bits(s: &StateVector) -> Vec<(u64, u64)> {
        s.amplitudes()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// A fresh binding of `plan` with op `op` shifted by `delta`.
    fn shifted_binding<'p>(
        plan: &'p ExecPlan,
        params: &[f64],
        op: usize,
        delta: f64,
    ) -> BoundPlan<'p> {
        let mut bound = plan.bind_scratch();
        bound.rebind_shifted(params, op, delta).unwrap();
        bound
    }

    /// The interpreter's run of `c` on `|0…0⟩` with op `op` shifted.
    fn oracle(c: &Circuit, params: &[f64], op: usize, delta: f64) -> StateVector {
        let mut s = StateVector::zero_state(c.num_qubits());
        c.interpret_on(&mut s, params, Some((op, delta))).unwrap();
        s
    }

    fn sample_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        let mut p = 0;
        for layer in 0..3 {
            for q in 0..n {
                c.push_sym(Gate::Ry(0.0), &[q], p);
                p += 1;
                c.push_sym(Gate::Rz(0.0), &[q], p);
                p += 1;
            }
            for q in 0..n - 1 {
                c.push_fixed(Gate::Cx, &[q, q + 1]);
            }
            if layer == 1 {
                c.push_fixed(Gate::Swap, &[0, n - 1]);
                c.push_sym_scaled(Gate::Rzz(0.0), &[1, n - 2], 0, 0.5);
            }
        }
        c
    }

    #[test]
    fn plan_matches_interpreter_exactly() {
        let c = sample_circuit(6);
        let params: Vec<f64> = (0..c.num_params()).map(|i| 0.17 * i as f64 - 1.0).collect();
        let interp = with_exec_mode(ExecMode::Interp, || c.run(&params).unwrap());
        let plan = c.compile().unwrap();
        let planned = plan.run(&params).unwrap();
        assert_eq!(bits(&interp), bits(&planned));
    }

    #[test]
    fn plan_reuse_across_parameter_vectors() {
        let c = sample_circuit(4);
        let plan = c.compile().unwrap();
        for seed in 0..4u64 {
            let mut rng = Xoshiro256::seed_from(seed);
            let params: Vec<f64> = (0..c.num_params())
                .map(|_| rng.next_f64() * 4.0 - 2.0)
                .collect();
            let interp = with_exec_mode(ExecMode::Interp, || c.run(&params).unwrap());
            assert_eq!(bits(&interp), bits(&plan.run(&params).unwrap()));
        }
    }

    #[test]
    fn shifted_bind_matches_interpreter_shift() {
        let c = sample_circuit(4);
        let plan = c.compile().unwrap();
        let params: Vec<f64> = (0..c.num_params()).map(|i| 0.3 + 0.05 * i as f64).collect();
        let delta = std::f64::consts::FRAC_PI_2;
        for (op, _) in c.sym_ops() {
            let mut s = StateVector::zero_state(4);
            shifted_binding(&plan, &params, op, delta)
                .run_on(&mut s)
                .unwrap();
            assert_eq!(bits(&oracle(&c, &params, op, delta)), bits(&s), "op {op}");
        }
    }

    #[test]
    fn tiling_kicks_in_for_low_qubit_runs() {
        // All operands below the tile exponent → one tile block, one pass
        // (classic schedule; fusion would lift the CXs into a permute).
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.push_fixed(Gate::H, &[q]);
        }
        c.push_fixed(Gate::Cx, &[0, 1]);
        c.push_fixed(Gate::Cx, &[2, 3]);
        let plan = c.compile().unwrap();
        let bound = with_fuse_mode(FuseMode::Off, || plan.bind(&[]).unwrap());
        assert!(!bound.fused());
        assert_eq!(bound.num_passes(), 1, "all-low circuit must fully tile");
        assert!(bound.num_gates() >= 2);
        // Fused: the H band tiles, both CXs become one permutation pass.
        let fused = with_fuse_mode(FuseMode::On, || plan.bind(&[]).unwrap());
        assert!(fused.fused());
        assert_eq!(fused.num_passes(), 2, "H tile + one permute");
        assert_eq!(fused.passes(), 5, "4 H visits + 1 permute");
        let a = with_fuse_mode(FuseMode::Off, || plan.run(&[]).unwrap());
        let b = with_fuse_mode(FuseMode::On, || plan.run(&[]).unwrap());
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn high_qubit_gates_are_sweep_boundaries() {
        // A 15-qubit circuit with the default tile exponent of 13: gates
        // on qubits 13/14 must split the tile runs.
        let mut c = Circuit::new(15);
        c.push_fixed(Gate::H, &[0]);
        c.push_fixed(Gate::Cx, &[0, 1]);
        c.push_fixed(Gate::Cx, &[13, 14]); // sweep boundary
        c.push_fixed(Gate::H, &[2]);
        c.push_fixed(Gate::Cx, &[2, 3]);
        let plan = c.compile().unwrap();
        let bound = with_fuse_mode(FuseMode::Off, || plan.bind(&[]).unwrap());
        assert_eq!(bound.num_passes(), 3, "tile, sweep, tile");
        let s = with_fuse_mode(FuseMode::Off, || plan.run(&[]).unwrap());
        let interp = with_exec_mode(ExecMode::Interp, || c.run(&[]).unwrap());
        assert_eq!(bits(&interp), bits(&s));
        // Fused: every CX joins one permutation — even the high-qubit
        // one, since deferred maps never touch memory until the flush.
        let fused = with_fuse_mode(FuseMode::On, || plan.bind(&[]).unwrap());
        assert_eq!(fused.num_passes(), 2, "H tile + one permute");
        assert_eq!(fused.passes(), 3, "2 H visits + 1 permute");
        let sf = with_fuse_mode(FuseMode::On, || plan.run(&[]).unwrap());
        assert_eq!(bits(&interp), bits(&sf));
    }

    #[test]
    fn ring_layer_fuses_to_n_plus_one_passes() {
        // One hardware-efficient layer: a rotation band then a CX ring.
        // Fused pass count must hit exactly N + 1 (N rotation visits +
        // one permutation); unfused it is 2N.
        let n = 6;
        let mut c = Circuit::new(n);
        let mut p = 0;
        for q in 0..n {
            c.push_sym(Gate::Ry(0.0), &[q], p);
            c.push_sym(Gate::Rz(0.0), &[q], p + 1);
            p += 2;
        }
        for q in 0..n {
            c.push_fixed(Gate::Cx, &[q, (q + 1) % n]);
        }
        let params: Vec<f64> = (0..p).map(|i| 0.2 + 0.1 * i as f64).collect();
        let plan = c.compile().unwrap();
        let fused = with_fuse_mode(FuseMode::On, || plan.bind(&params).unwrap());
        assert_eq!(fused.passes(), n + 1, "N rotation visits + 1 permute");
        let unfused = with_fuse_mode(FuseMode::Off, || plan.bind(&params).unwrap());
        assert_eq!(unfused.passes(), 2 * n, "per-gate model: 2N");
        assert!(fused.amp_bytes_swept() < unfused.amp_bytes_swept());
        let interp = with_exec_mode(ExecMode::Interp, || c.run(&params).unwrap());
        let got = with_fuse_mode(FuseMode::On, || plan.run(&params).unwrap());
        assert_eq!(bits(&interp), bits(&got));
    }

    #[test]
    fn arithmetic_rings_do_not_fuse() {
        // CZ and Rzz rings scale amplitudes (diagonal kernels, not pure
        // permutations): fusion must leave them alone — a scalar multiply
        // does not commute bit-wise with the rotation band.
        let n = 4;
        for ring in ["cz", "rzz"] {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.push_fixed(Gate::Ry(0.3), &[q]);
            }
            for q in 0..n {
                match ring {
                    "cz" => c.push_fixed(Gate::Cz, &[q, (q + 1) % n]),
                    _ => c.push_fixed(Gate::Rzz(0.7), &[q, (q + 1) % n]),
                };
            }
            let plan = c.compile().unwrap();
            let fused = with_fuse_mode(FuseMode::On, || plan.bind(&[]).unwrap());
            let unfused = with_fuse_mode(FuseMode::Off, || plan.bind(&[]).unwrap());
            assert_eq!(
                fused.passes(),
                unfused.passes(),
                "{ring} ring must not fuse"
            );
            assert!(fused.steps.iter().all(|s| !matches!(s, Step::Permute(_))));
        }
    }

    #[test]
    fn overlapping_rotation_flushes_the_pending_permutation() {
        // Ry(0) · CX(0,1) · Ry(0): the second rotation touches a qubit
        // the deferred map moved, so the map must flush between them.
        let mut c = Circuit::new(2);
        c.push_sym(Gate::Ry(0.0), &[0], 0);
        c.push_fixed(Gate::Cx, &[0, 1]);
        c.push_sym(Gate::Ry(0.0), &[0], 1);
        let plan = c.compile().unwrap();
        let bound = with_fuse_mode(FuseMode::On, || plan.bind(&[0.4, 0.9]).unwrap());
        assert_eq!(bound.passes(), 3, "rotation, permute, rotation");
        assert_eq!(bound.num_passes(), 3);
        let interp = with_exec_mode(ExecMode::Interp, || c.run(&[0.4, 0.9]).unwrap());
        let got = with_fuse_mode(FuseMode::On, || plan.run(&[0.4, 0.9]).unwrap());
        assert_eq!(bits(&interp), bits(&got));
    }

    #[test]
    fn cancelling_permutations_cost_nothing() {
        // Swap·Swap composes to the identity: the scheduler must drop the
        // permutation pass entirely.
        let mut c = Circuit::new(2);
        c.push_fixed(Gate::H, &[0]);
        c.push_fixed(Gate::Swap, &[0, 1]);
        c.push_fixed(Gate::Swap, &[0, 1]);
        let plan = c.compile().unwrap();
        let bound = with_fuse_mode(FuseMode::On, || plan.bind(&[]).unwrap());
        assert_eq!(bound.passes(), 1, "just the H");
        let interp = with_exec_mode(ExecMode::Interp, || c.run(&[]).unwrap());
        let got = with_fuse_mode(FuseMode::On, || plan.run(&[]).unwrap());
        assert_eq!(bits(&interp), bits(&got));
    }

    #[test]
    fn x_bands_and_swaps_fuse_with_cx() {
        // A mixed pure-permutation tail (X gates, Swap, CX chain) becomes
        // one gather pass and stays bit-exact against the interpreter.
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.push_fixed(Gate::H, &[q]);
        }
        c.push_fixed(Gate::Cx, &[0, 1]);
        c.push_fixed(Gate::Swap, &[1, 3]);
        c.push_fixed(Gate::Cx, &[3, 4]);
        c.push_fixed(Gate::X, &[2]);
        c.push_fixed(Gate::Cx, &[4, 0]);
        let plan = c.compile().unwrap();
        let bound = with_fuse_mode(FuseMode::On, || plan.bind(&[]).unwrap());
        assert_eq!(bound.passes(), 6, "5 H visits + 1 permute");
        let interp = with_exec_mode(ExecMode::Interp, || c.run(&[]).unwrap());
        let got = with_fuse_mode(FuseMode::On, || plan.run(&[]).unwrap());
        assert_eq!(bits(&interp), bits(&got));
    }

    #[test]
    fn rebind_reuses_buffers_and_matches_fresh_binds() {
        let c = sample_circuit(5);
        let plan = c.compile().unwrap();
        let mut bound = plan.bind(&vec![0.0; c.num_params()]).unwrap();
        for seed in 0..4u64 {
            let mut rng = Xoshiro256::seed_from(seed);
            let params: Vec<f64> = (0..c.num_params())
                .map(|_| rng.next_f64() * 4.0 - 2.0)
                .collect();
            bound.rebind(&params).unwrap();
            let mut s = StateVector::zero_state(5);
            bound.run_on(&mut s).unwrap();
            let fresh = plan.run(&params).unwrap();
            assert_eq!(bits(&fresh), bits(&s), "seed {seed}");
            // Shifted rebind too (the gradient-loop pattern).
            let (op, _) = c.sym_ops()[seed as usize % c.sym_ops().len()];
            bound.rebind_shifted(&params, op, 0.7).unwrap();
            let mut s = StateVector::zero_state(5);
            bound.run_on(&mut s).unwrap();
            let mut fresh = StateVector::zero_state(5);
            shifted_binding(&plan, &params, op, 0.7)
                .run_on(&mut fresh)
                .unwrap();
            assert_eq!(bits(&fresh), bits(&s), "shifted seed {seed}");
        }
    }

    #[test]
    fn failed_rebind_leaves_scratch_clean() {
        // A rebind that errors (missing params) must not poison the
        // pending-1q buffers for the next rebind.
        let mut c = Circuit::new(2);
        c.push_sym(Gate::Ry(0.0), &[0], 0);
        c.push_sym(Gate::Rz(0.0), &[1], 1);
        let plan = c.compile().unwrap();
        let mut bound = plan.bind(&[0.3, 0.4]).unwrap();
        assert!(bound.rebind(&[0.1]).is_err());
        bound.rebind(&[0.5, 0.6]).unwrap();
        let mut s = StateVector::zero_state(2);
        bound.run_on(&mut s).unwrap();
        assert_eq!(bits(&plan.run(&[0.5, 0.6]).unwrap()), bits(&s));
    }

    #[test]
    fn fuse_mode_override_nests_and_restores() {
        let ambient = FuseMode::current();
        with_fuse_mode(FuseMode::Off, || {
            assert_eq!(FuseMode::current(), FuseMode::Off);
            with_fuse_mode(FuseMode::On, || {
                assert_eq!(FuseMode::current(), FuseMode::On);
            });
            assert_eq!(FuseMode::current(), FuseMode::Off);
        });
        assert_eq!(FuseMode::current(), ambient);
    }

    #[test]
    fn plan_errors_match_interpreter_errors() {
        // Missing parameters.
        let mut c = Circuit::new(1);
        c.push_sym(Gate::Rx(0.0), &[0], 2);
        let plan = c.compile().unwrap();
        assert!(matches!(
            plan.run(&[0.1]).unwrap_err(),
            CircuitError::ParamOutOfRange { param_index: 2, .. }
        ));
        // Narrow state: same error, and the state stays untouched.
        let mut c2 = Circuit::new(3);
        c2.push_fixed(Gate::H, &[0]);
        c2.push_fixed(Gate::Rz(0.4), &[2]);
        let plan2 = c2.compile().unwrap();
        let mut narrow = StateVector::zero_state(1);
        match plan2.run_on(&mut narrow, &[]) {
            Err(CircuitError::State(StateError::QubitOutOfRange {
                qubit: 2,
                num_qubits: 1,
            })) => {}
            other => panic!("expected QubitOutOfRange, got {other:?}"),
        }
        assert!((narrow.probability(0) - 1.0).abs() < EPS, "no half-run");
        // Structural problems surface at compile time.
        let mut c3 = Circuit::new(1);
        c3.push_fixed(Gate::X, &[1]);
        assert!(matches!(
            c3.compile(),
            Err(CircuitError::QubitOutOfRange { qubit: 1, .. })
        ));
    }

    #[test]
    fn empty_plan_runs() {
        let c = Circuit::new(3);
        let plan = c.compile().unwrap();
        assert!(plan.is_empty());
        let s = plan.run(&[]).unwrap();
        assert!((s.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn wider_state_than_plan_works() {
        let mut c = Circuit::new(2);
        c.push_fixed(Gate::X, &[1]);
        let plan = c.compile().unwrap();
        let mut wide = StateVector::zero_state(4);
        plan.run_on(&mut wide, &[]).unwrap();
        assert!((wide.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn atom_ranges_compose_to_the_full_run() {
        // 14 qubits: two tiles, so a cut inside a tile block splits it.
        let c = sample_circuit(14);
        let plan = c.compile().unwrap();
        let params: Vec<f64> = (0..c.num_params()).map(|i| 0.1 * i as f64 - 0.7).collect();
        let bound = plan.bind(&params).unwrap();
        assert!(bound.steps.iter().any(|s| matches!(s, Step::Tile(_))));
        let full = plan.run(&params).unwrap();
        let atoms = bound.passes();
        assert_eq!(bound.shared_prefix(&bound), atoms);
        for cut in 0..=atoms {
            let mut s = StateVector::zero_state(14);
            bound.run_atoms(&mut s, 0..cut).unwrap();
            bound.run_atoms(&mut s, cut..atoms).unwrap();
            assert_eq!(bits(&full), bits(&s), "cut at atom {cut}");
        }
    }

    #[test]
    fn shared_prefix_ends_at_the_first_changed_atom() {
        // One layer of fused Ry·Rz per qubit then a CX ring: the first
        // layer's atoms are one gate per qubit, so shifting qubit q's
        // rotation changes atom q first.
        let n = 4;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.push_sym(Gate::Ry(0.0), &[q], 2 * q);
            c.push_sym(Gate::Rz(0.0), &[q], 2 * q + 1);
        }
        for q in 0..n {
            c.push_fixed(Gate::Cx, &[q, (q + 1) % n]);
        }
        let params: Vec<f64> = (0..2 * n).map(|i| 0.3 + 0.1 * i as f64).collect();
        let plan = c.compile().unwrap();
        let base = with_fuse_mode(FuseMode::On, || plan.bind(&params).unwrap());
        assert_eq!(base.passes(), n + 1);
        for (op, _) in c.sym_ops() {
            let shifted = with_fuse_mode(FuseMode::On, || {
                shifted_binding(&plan, &params, op, std::f64::consts::FRAC_PI_2)
            });
            assert_eq!(base.shared_prefix(&shifted), op / 2, "op {op}");
        }
    }

    #[test]
    fn interpreter_resume_is_a_full_oracle_run() {
        let c = sample_circuit(4);
        let plan = c.compile().unwrap();
        let params: Vec<f64> = (0..c.num_params()).map(|i| 0.2 * i as f64).collect();
        let base = plan.bind(&params).unwrap();
        let (op, _) = c.sym_ops()[3];
        let shifted = shifted_binding(&plan, &params, op, 0.5);
        assert!(base.shared_prefix(&shifted) > 0);
        let mut work = StateVector::zero_state(4);
        let skipped = with_exec_mode(ExecMode::Interp, || {
            PrefixCursor::new()
                .resume(&base, &shifted, &mut work, || {
                    Ok::<_, CircuitError>(StateVector::zero_state(4))
                })
                .unwrap()
        });
        assert_eq!(skipped, 0);
        assert_eq!(bits(&oracle(&c, &params, op, 0.5)), bits(&work));
    }

    #[test]
    fn thread_modes_carry_the_overrides_to_another_thread() {
        let seen = |modes: ThreadModes| {
            std::thread::scope(|s| {
                s.spawn(|| modes.enter(|| (FuseMode::current(), ExecMode::current())))
                    .join()
                    .unwrap()
            })
        };
        for fuse in [FuseMode::On, FuseMode::Off] {
            for exec in [ExecMode::Interp, ExecMode::Plan] {
                let modes = with_fuse_mode(fuse, || with_exec_mode(exec, ThreadModes::current));
                assert_eq!(seen(modes), (fuse, exec));
            }
        }
    }

    #[test]
    fn exec_mode_override_nests_and_restores() {
        let ambient = ExecMode::current();
        with_exec_mode(ExecMode::Interp, || {
            assert_eq!(ExecMode::current(), ExecMode::Interp);
            with_exec_mode(ExecMode::Plan, || {
                assert_eq!(ExecMode::current(), ExecMode::Plan);
            });
            assert_eq!(ExecMode::current(), ExecMode::Interp);
        });
        assert_eq!(ExecMode::current(), ambient);
    }

    #[test]
    fn fuse_knob_rejects_typos() {
        for on in ["", "on", " on "] {
            assert_eq!(FuseMode::parse(on), Ok(FuseMode::On), "{on:?}");
        }
        for off in ["off", "0"] {
            assert_eq!(FuseMode::parse(off), Ok(FuseMode::Off), "{off:?}");
        }
        for typo in ["of", "OFF", "false", "no"] {
            let msg = FuseMode::parse(typo).unwrap_err();
            assert!(
                msg.contains(FUSE_ENV) && msg.contains(typo) && msg.contains("\"off\""),
                "{msg}"
            );
        }
    }
}
