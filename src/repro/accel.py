"""On-demand C kernels for the simulator's hottest inner loops.

The fabric's max-min refill runs ~30 freeze rounds over ~100 links per
call, tens of thousands of calls per run — small enough that numpy's
per-ufunc dispatch overhead (µs) dominates the actual arithmetic (ns).
No JIT package is assumed; instead this module compiles a ~100-line C
translation of the loop with the *system* C compiler the first time it
is needed and loads it through :mod:`ctypes`.  There is exactly one C
refill: it runs against a persistent link→flows membership that
``FlowNetwork`` mirrors into C on every flow attach/detach.  A fabric
flow starts in one call (``repro_state_start``: settle, link counts, slot
fill and membership attach).  No compiler, a failed build, or
``REPRO_NO_CKERNEL=1`` all leave the fabric on the pure-numpy reference
(``FlowNetwork._refill_reference``, and ``_register_route``,
``_settle_all`` and ``_attach`` for a start) with identical results.

Bit-identity contract
---------------------
The kernel performs the exact floating-point operation sequence of the
numpy paths — per-round ``share = residual / nflows`` divisions, a
comparison-based minimum, and one fused ``residual -= rate * count``
update per crossed link — and is compiled with ``-ffp-contract=off`` so
no FMA contraction can perturb a rounding.  IEEE-754 doubles make each
of those operations exactly reproducible across the C and numpy
implementations, so the C kernel and the numpy reference (which serves
both ``REPRO_NO_CKERNEL=1`` and ``REPRO_NO_CACHE=1``) produce
byte-identical rates; ``tests/test_perf_cache.py`` asserts this directly.

Build artefacts are cached under ``<repo>/build/kernels`` (gitignored),
keyed by a hash of the source so edits trigger a rebuild; a temp
directory is used when the tree is read-only.  Concurrent builders (the
sweep runner's worker processes) race benignly: each compiles to a
private temp name and ``os.replace``s it into place atomically.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

__all__ = ["refill_kernel"]

# C translation of the FlowNetwork hot path: the max-min refill freeze
# loop, the fused settle → drain-detect → refill → horizon tick and the
# one-call flow start (see FlowNetwork._refill / FlowNetwork._tick /
# FlowNetwork._start_slot for the algorithm and the bit-identity
# argument).  Kept dependency-free: C99 + libm only.
_REFILL_SRC = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

typedef struct { double v; int64_t slot; } cap_pair;

/* ascending by value, ties by slot — matches numpy's stable argsort of
 * the finite-cap subset taken in slot order */
static int cap_cmp(const void *pa, const void *pb)
{
    const cap_pair *a = pa, *b = pb;
    if (a->v < b->v) return -1;
    if (a->v > b->v) return 1;
    return a->slot < b->slot ? -1 : (a->slot > b->slot ? 1 : 0);
}

/* Scratch arena persisted across calls (single-threaded simulator): the
 * refill runs >100k times per large experiment, so per-call malloc/free
 * churn is measurable.  Grown geometrically, never shrunk. */
static double *g_residual, *g_nflows, *g_share;
static int64_t *g_cnt, *g_touched, *g_active, *g_newly;
static char *g_frozen;
static cap_pair *g_caps;
static int64_t g_cap_links = -1, g_cap_flows = -1;

static int ensure_scratch(int64_t nF, int64_t nL)
{
    if (nL >= g_cap_links) {
        int64_t cap = 2 * nL + 64;
        double *r = realloc(g_residual, (size_t)cap * sizeof(double));
        double *n = realloc(g_nflows, (size_t)cap * sizeof(double));
        double *s = realloc(g_share, (size_t)cap * sizeof(double));
        int64_t *c = realloc(g_cnt, (size_t)cap * sizeof(int64_t));
        int64_t *t = realloc(g_touched, (size_t)cap * sizeof(int64_t));
        int64_t *a = realloc(g_active, (size_t)cap * sizeof(int64_t));
        if (r) g_residual = r;
        if (n) g_nflows = n;
        if (s) g_share = s;
        if (c) g_cnt = c;
        if (t) g_touched = t;
        if (a) g_active = a;
        if (!r || !n || !s || !c || !t || !a)
            return -1;
        g_cap_links = cap;
    }
    if (nF >= g_cap_flows) {
        int64_t cap = 2 * nF + 64;
        int64_t *w = realloc(g_newly, (size_t)cap * sizeof(int64_t));
        char *z = realloc(g_frozen, (size_t)cap);
        cap_pair *p = realloc(g_caps, (size_t)cap * sizeof(cap_pair));
        if (w) g_newly = w;
        if (z) g_frozen = z;
        if (p) g_caps = p;
        if (!w || !z || !p)
            return -1;
        g_cap_flows = cap;
    }
    return 0;
}

/* ------------------------------------------------------------------
 * Persistent fabric state: the link->flows membership maintained
 * incrementally across calls.  Python mirrors its slot bookkeeping
 * (append on attach, swap-remove on detach) into this structure; the
 * refill then reads per-link member lists and per-slot route rows
 * directly.  A desync-shaped error (-3) is a bug on the Python side and
 * is raised there, never papered over.
 *
 * Member-list order is immaterial: the freeze *set* of a round is
 * "every unfrozen member of every minimum-share link", per-link
 * decrement counts are integers, and rate assignment is per-flow — so
 * the float sequence matches the numpy reference exactly and traces
 * stay byte-identical.
 */

typedef struct { int64_t slot, ri; } mem_ent;
typedef struct { mem_ent *data; int64_t len, cap; } mem_list;

typedef struct {
    int64_t n;       /* live flow slots (mirrors len(_flows)) */
    int64_t nL;      /* 1 + highest link id seen */
    int64_t nL_cap;  /* links table capacity */
    int64_t nF_cap;  /* slot rows capacity */
    int64_t W;       /* per-slot route width capacity */
    mem_list *links;
    int64_t *ids;    /* nF_cap x W route link ids */
    int64_t *pos;    /* nF_cap x W position of (slot, r) in links[id] */
    int64_t *lens;   /* per-slot route length */
} fab_state;

void *repro_state_new(void)
{
    fab_state *st = calloc(1, sizeof(fab_state));
    if (!st)
        return NULL;
    st->W = 8;
    st->nF_cap = 256;
    st->nL_cap = 256;
    st->links = calloc((size_t)st->nL_cap, sizeof(mem_list));
    st->ids = malloc((size_t)(st->nF_cap * st->W) * sizeof(int64_t));
    st->pos = malloc((size_t)(st->nF_cap * st->W) * sizeof(int64_t));
    st->lens = malloc((size_t)st->nF_cap * sizeof(int64_t));
    if (!st->links || !st->ids || !st->pos || !st->lens) {
        free(st->links); free(st->ids); free(st->pos); free(st->lens);
        free(st);
        return NULL;
    }
    return st;
}

void repro_state_free(void *p)
{
    fab_state *st = p;
    if (!st)
        return;
    for (int64_t l = 0; l < st->nL_cap; l++)
        free(st->links[l].data);
    free(st->links); free(st->ids); free(st->pos); free(st->lens);
    free(st);
}

static int state_widen(fab_state *st, int64_t newW)
{
    int64_t *ids = malloc((size_t)(st->nF_cap * newW) * sizeof(int64_t));
    int64_t *pos = malloc((size_t)(st->nF_cap * newW) * sizeof(int64_t));
    if (!ids || !pos) {
        free(ids); free(pos);
        return -1;
    }
    for (int64_t s = 0; s < st->n; s++)
        for (int64_t r = 0; r < st->lens[s]; r++) {
            ids[s * newW + r] = st->ids[s * st->W + r];
            pos[s * newW + r] = st->pos[s * st->W + r];
        }
    free(st->ids); free(st->pos);
    st->ids = ids;
    st->pos = pos;
    st->W = newW;
    return 0;
}

int repro_state_attach(void *p, int64_t slot, const int64_t *ids,
                       int64_t len)
{
    fab_state *st = p;
    if (!st || slot != st->n || len < 0)
        return -3;
    if (len > st->W && state_widen(st, 2 * len) != 0)
        return -1;
    if (slot >= st->nF_cap) {
        int64_t cap = 2 * st->nF_cap;
        int64_t *i2 = realloc(st->ids,
                              (size_t)(cap * st->W) * sizeof(int64_t));
        if (i2) st->ids = i2;
        int64_t *p2 = realloc(st->pos,
                              (size_t)(cap * st->W) * sizeof(int64_t));
        if (p2) st->pos = p2;
        int64_t *l2 = realloc(st->lens, (size_t)cap * sizeof(int64_t));
        if (l2) st->lens = l2;
        if (!i2 || !p2 || !l2)
            return -1;
        st->nF_cap = cap;
    }
    for (int64_t r = 0; r < len; r++) {
        int64_t l = ids[r];
        if (l < 0)
            return -3;
        if (l >= st->nL_cap) {
            int64_t cap = 2 * l + 64;
            mem_list *t = realloc(st->links,
                                  (size_t)cap * sizeof(mem_list));
            if (!t)
                return -1;
            memset(t + st->nL_cap, 0,
                   (size_t)(cap - st->nL_cap) * sizeof(mem_list));
            st->links = t;
            st->nL_cap = cap;
        }
        if (l >= st->nL)
            st->nL = l + 1;
        mem_list *ml = &st->links[l];
        if (ml->len == ml->cap) {
            int64_t cap = ml->cap ? 2 * ml->cap : 8;
            mem_ent *d = realloc(ml->data, (size_t)cap * sizeof(mem_ent));
            if (!d)
                return -1;
            ml->data = d;
            ml->cap = cap;
        }
        ml->data[ml->len].slot = slot;
        ml->data[ml->len].ri = r;
        st->ids[slot * st->W + r] = l;
        st->pos[slot * st->W + r] = ml->len;
        ml->len++;
    }
    st->lens[slot] = len;
    st->n++;
    return 0;
}

int repro_state_detach(void *p, int64_t slot)
{
    fab_state *st = p;
    if (!st || slot < 0 || slot >= st->n)
        return -3;
    int64_t W = st->W;
    /* drop the slot's membership entries (swap-remove within lists) */
    for (int64_t r = 0; r < st->lens[slot]; r++) {
        int64_t l = st->ids[slot * W + r];
        int64_t at = st->pos[slot * W + r];
        mem_list *ml = &st->links[l];
        int64_t last = ml->len - 1;
        if (at != last) {
            mem_ent moved = ml->data[last];
            ml->data[at] = moved;
            st->pos[moved.slot * W + moved.ri] = at;
        }
        ml->len = last;
    }
    /* rename the last slot into the freed one, as Python's swap-remove */
    int64_t tail = st->n - 1;
    if (slot != tail) {
        int64_t tl = st->lens[tail];
        for (int64_t r = 0; r < tl; r++) {
            int64_t l = st->ids[tail * W + r];
            int64_t at = st->pos[tail * W + r];
            st->links[l].data[at].slot = slot;
            st->ids[slot * W + r] = l;
            st->pos[slot * W + r] = at;
        }
        st->lens[slot] = tl;
    }
    st->n = tail;
    return 0;
}

/* Start one fabric flow in slot `slot` (== the live slot count): settle
 * every live slot over dt exactly as the tick below does, attach the
 * route's link membership, count its links as carrying one more flow
 * (count += 1, seen = 1; a route never repeats a link) and fill the
 * slot's remaining bytes, rate, cap and route length.  count and seen
 * hold nL links.  Returns 0, or before anything was written -3 for a
 * link id outside [0, nL) or an attach error. */
int repro_state_start(void *p, int64_t slot, double dt, double *rem,
                      double *rates, double *flow_caps, int64_t *route_lens,
                      int64_t *count, unsigned char *seen, int64_t nL,
                      const int64_t *ids, int64_t len, double size,
                      double cap)
{
    for (int64_t r = 0; r < len; r++)
        if (ids[r] < 0 || ids[r] >= nL)
            return -3;
    int rc = repro_state_attach(p, slot, ids, len);
    if (rc != 0)
        return rc;
    if (dt > 0.0)
        for (int64_t f = 0; f < slot; f++) {
            double v = rem[f] - rates[f] * dt;
            rem[f] = v > 0.0 ? v : 0.0;
        }
    for (int64_t r = 0; r < len; r++) {
        count[ids[r]]++;
        seen[ids[r]] = 1;
    }
    rem[slot] = size;
    rates[slot] = 0.0;
    flow_caps[slot] = cap;
    route_lens[slot] = len;
    return 0;
}

/* Max-min progressive filling with tie-collapsed freeze rounds.
 *
 * caps:      per-link capacity, length nL.
 * flow_caps: per-flow max rate, length nF (consulted only when
 *            have_caps, i.e. some flow carries a finite cap).
 * rates:     output, length nF.
 *
 * The freeze loop iterates only the *active* links (those crossed by at
 * least one flow) and memoises per-link shares across rounds: a share
 * changes only when its link is crossed by a freeze, so each round is a
 * compare-only minimum scan plus one division per crossed link.  The
 * divisions performed are the same `residual / nflows` the per-round
 * full rescan would perform (identical operands), keeping the result
 * bit-identical to the numpy reference.
 *
 * Returns 0 on success, -1 on allocation failure, -2 if an uncapped
 * flow has no route links (caller falls back to the Python path, which
 * raises the assertion with context), -3 if the state is desynced.
 */
static int do_refill_state(fab_state *st, int64_t nF, int64_t nL,
                           const double *caps, const double *flow_caps,
                           int have_caps, double *rates)
{
    if (nF == 0)
        return 0;
    if (!st || st->n != nF || st->nL > nL)
        return -3;
    if (ensure_scratch(nF, nL) != 0)
        return -1;
    double *residual = g_residual, *nflows = g_nflows, *share = g_share;
    int64_t *cnt = g_cnt, *touched = g_touched;
    int64_t *active = g_active, *newly = g_newly;
    char *frozen = g_frozen;
    cap_pair *cap_sorted = g_caps;
    int64_t n_cap = 0;

    memset(frozen, 0, (size_t)nF);
    if (have_caps) {
        for (int64_t f = 0; f < nF; f++)
            if (isfinite(flow_caps[f])) {
                cap_sorted[n_cap].v = flow_caps[f];
                cap_sorted[n_cap].slot = f;
                n_cap++;
            }
        qsort(cap_sorted, (size_t)n_cap, sizeof(cap_pair), cap_cmp);
    }
    int64_t n_active = 0;
    for (int64_t l = 0; l < st->nL; l++) {
        int64_t c = st->links[l].len;
        if (c > 0) {
            active[n_active++] = l;
            residual[l] = caps[l];
            nflows[l] = (double)c;
            cnt[l] = 0;
            share[l] = residual[l] / nflows[l];
        }
    }

    int64_t left = nF, cap_ptr = 0;
    const int64_t W = st->W;
    while (left > 0) {
        double best = INFINITY;
        for (int64_t a = 0; a < n_active; a++) {
            double s = share[active[a]];
            if (s < best)
                best = s;
        }
        while (cap_ptr < n_cap && frozen[cap_sorted[cap_ptr].slot])
            cap_ptr++;
        double min_cap = cap_ptr < n_cap ? cap_sorted[cap_ptr].v : INFINITY;
        double rate;
        int64_t n_new = 0;
        if (min_cap < best) {
            rate = min_cap;
            for (int64_t j = cap_ptr; j < n_cap && cap_sorted[j].v == rate;
                 j++) {
                int64_t f = cap_sorted[j].slot;
                if (!frozen[f]) {
                    frozen[f] = 1;
                    newly[n_new++] = f;
                }
            }
        } else {
            if (!(best < INFINITY))
                return -2; /* uncapped flow with no route links */
            rate = best;
            for (int64_t a = 0; a < n_active; a++) {
                int64_t l = active[a];
                if (share[l] != best)
                    continue;
                mem_list *ml = &st->links[l];
                for (int64_t i = 0; i < ml->len; i++) {
                    int64_t f = ml->data[i].slot;
                    if (!frozen[f]) {
                        frozen[f] = 1;
                        newly[n_new++] = f;
                    }
                }
            }
        }
        /* a minimum-share link with no unfrozen member: its nflows
         * disagrees with its member list, and looping on would never end */
        if (n_new == 0)
            return -3;
        int64_t n_touch = 0;
        for (int64_t i = 0; i < n_new; i++) {
            int64_t f = newly[i];
            rates[f] = rate;
            const int64_t *row = st->ids + f * W;
            int64_t fl = st->lens[f];
            for (int64_t r = 0; r < fl; r++) {
                int64_t l = row[r];
                if (cnt[l]++ == 0)
                    touched[n_touch++] = l;
            }
        }
        /* one rate*count subtraction per link, exactly as the numpy
         * reference's `residual -= rate * bincount(...)`, then refresh
         * the share memo for exactly the links that changed */
        for (int64_t t = 0; t < n_touch; t++) {
            int64_t l = touched[t];
            residual[l] -= rate * (double)cnt[l];
            nflows[l] -= (double)cnt[l];
            cnt[l] = 0;
            share[l] = nflows[l] > 0.0 ? residual[l] / nflows[l] : INFINITY;
        }
        left -= n_new;
    }
    return 0;
}

/* earliest completion among progressing flows; -1.0 when none progress
 * (all stalled behind failed links), matching _schedule_next's guard */
static double do_horizon(int64_t nF, const double *rem, const double *rates)
{
    double best = INFINITY;
    int any = 0;
    for (int64_t f = 0; f < nF; f++)
        if (rates[f] > 0.0) {
            double q = rem[f] / rates[f];
            if (q < best)
                best = q;
            any = 1;
        }
    return any ? best : -1.0;
}

/* The fused tick fast path: settle progress over dt, detect drained
 * flows, and — only when none drained, so no Python callbacks need to
 * run — refill rates and compute the next-completion horizon.
 *
 * Returns n_drained >= 0 (drained slot ids in ascending order in
 * drained_out; rates untouched when > 0), or a negative do_refill_state
 * error code.  *horizon_out is meaningful only when the return is 0.
 */
int repro_tick_state(void *st, int64_t nF, int64_t nL,
                     const double *caps, const double *flow_caps,
                     int have_caps, double dt, double eps,
                     double *rem, double *rates,
                     int64_t *drained_out, double *horizon_out)
{
    int64_t n_drained = 0;
    if (dt > 0.0)
        for (int64_t f = 0; f < nF; f++) {
            double v = rem[f] - rates[f] * dt;
            rem[f] = v > 0.0 ? v : 0.0;
        }
    for (int64_t f = 0; f < nF; f++)
        if (rem[f] <= eps)
            drained_out[n_drained++] = f;
    if (n_drained > 0)
        return (int)n_drained;
    int rc = do_refill_state(st, nF, nL, caps, flow_caps, have_caps, rates);
    if (rc != 0)
        return rc;
    *horizon_out = do_horizon(nF, rem, rates);
    return 0;
}

/* refill + horizon: the tick path that resumes after Python-side
 * completion callbacks, and the cancel/reroute flush (which ignores the
 * horizon) */
int repro_refill_horizon_state(void *st, int64_t nF, int64_t nL,
                               const double *caps, const double *flow_caps,
                               int have_caps, const double *rem,
                               double *rates, double *horizon_out)
{
    int rc = do_refill_state(st, nF, nL, caps, flow_caps, have_caps, rates);
    if (rc == 0)
        *horizon_out = do_horizon(nF, rem, rates);
    return rc;
}

/* Row-wise gather+min: out[i] = min over r of share[tensor[i*R + r]].
 * Backs FlowNetwork.rate_matrix's padded route-tensor reduction without
 * materialising the (k, k, R) gathered intermediate.  min over doubles
 * free of NaN is exact and order-independent, so the result is
 * bit-identical to numpy's `share[tensor].min(axis=2)`. */
int repro_gather_min(int64_t n, int64_t R, const int64_t *tensor,
                     const double *share, double *out)
{
    if (R <= 0)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *row = tensor + i * R;
        double m = share[row[0]];
        for (int64_t r = 1; r < R; r++) {
            double v = share[row[r]];
            if (v < m)
                m = v;
        }
        out[i] = m;
    }
    return 0;
}
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_loaded: Optional[object] = None
_load_attempted = False


def _build_dir() -> Path:
    root = Path(__file__).resolve().parents[2] / "build" / "kernels"
    try:
        root.mkdir(parents=True, exist_ok=True)
        probe = root / ".write-probe"
        probe.touch()
        probe.unlink()
        return root
    except OSError:
        return Path(tempfile.mkdtemp(prefix="repro-kernels-"))


def _compile(src: str, stem: str) -> Optional[Path]:
    """Compile ``src`` to a cached shared object; None if no compiler."""
    digest = hashlib.sha256(src.encode()).hexdigest()[:12]
    out_dir = _build_dir()
    so_path = out_dir / f"{stem}-{digest}.so"
    if so_path.exists():
        return so_path
    cc = os.environ.get("CC", "cc")
    fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=out_dir)
    tmp_so = tmp_c[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(src)
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp_so, tmp_c],
            capture_output=True,
            timeout=60,
        )
        if proc.returncode != 0:
            return None
        os.replace(tmp_so, so_path)  # atomic vs concurrent builders
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        for leftover in (tmp_c, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass


class FabricKernels:
    """ctypes handles to the compiled fabric kernels.

    All pointer parameters are declared ``void*`` so callers can pass the
    raw integer from ``ndarray.ctypes.data`` without a per-call ctypes
    conversion (which would cost more than the kernels themselves at the
    fabric's call rates).
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        i64, f64, vp = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        self.gather_min = lib.repro_gather_min
        self.gather_min.argtypes = [i64, i64, vp, vp, vp]
        self.gather_min.restype = ctypes.c_int
        # persistent fabric-state API (incremental link->flows membership)
        self.state_new = lib.repro_state_new
        self.state_new.argtypes = []
        self.state_new.restype = vp
        self.state_free = lib.repro_state_free
        self.state_free.argtypes = [vp]
        self.state_free.restype = None
        self.state_attach = lib.repro_state_attach
        self.state_attach.argtypes = [vp, i64, vp, i64]
        self.state_attach.restype = ctypes.c_int
        self.state_detach = lib.repro_state_detach
        self.state_detach.argtypes = [vp, i64]
        self.state_detach.restype = ctypes.c_int
        self.state_start = lib.repro_state_start
        # the route ids arrive as bytes: ``ndarray.tobytes()`` costs a
        # fraction of a ``.ctypes.data`` lookup
        self.state_start.argtypes = [
            vp, i64, f64, vp, vp, vp, vp, vp, vp, i64, ctypes.c_char_p, i64,
            f64, f64,
        ]
        self.state_start.restype = ctypes.c_int
        self.tick_state = lib.repro_tick_state
        self.tick_state.argtypes = [
            vp, i64, i64, vp, vp, ctypes.c_int, f64, f64, vp, vp, vp, vp,
        ]
        self.tick_state.restype = ctypes.c_int
        self.refill_horizon_state = lib.repro_refill_horizon_state
        self.refill_horizon_state.argtypes = [
            vp, i64, i64, vp, vp, ctypes.c_int, vp, vp, vp,
        ]
        self.refill_horizon_state.restype = ctypes.c_int


def refill_kernel() -> Optional[FabricKernels]:
    """The loaded fabric kernels, or None.

    None means "use the pure-Python fallback": the user opted out with
    ``REPRO_NO_CKERNEL=1``, no C compiler is available, or the build
    failed.  The result is cached for the life of the process.
    """
    global _loaded, _load_attempted
    if _load_attempted:
        return _loaded
    _load_attempted = True
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    so_path = _compile(_REFILL_SRC, "fabric")
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
        kern = FabricKernels(lib)
    except (OSError, AttributeError):
        return None
    _loaded = kern
    return kern
