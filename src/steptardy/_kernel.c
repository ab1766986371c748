/* The hot loops of steptardy, in int64, as the CPython extension module
   steptardy._kernel.

   - Local search: one call of steptardy_descend is one whole local search.
     It runs a first-improvement descent to a fixpoint of each neighbourhood
     in a given order in turn (one neighbourhood for descend and VNS, all
     five for VND) and returns the final total tardiness with the sequence.
     A search passes its incumbent with the neighbourhoods it is known to be
     a local optimum of, and the scans that could only repeat are skipped.
     The definition, and the reference these scans are tested against, is
     in neighborhoods.py: _moves lists the moves (i, j) in canonical order,
     _apply makes one, and _descend_python accepts the first move that
     strictly lowers the total tardiness and repeats until none does.  The
     four block neighbourhoods are two move shapes over a block of L = 1 or
     2 adjacent jobs: scan_exchange (swap, pairwise exchange) and scan_shift
     (insertion, couple insertion); two-opt has scan_two_opt.  The scans
     visit the same moves in the same order but skip candidates that
     provably cannot beat the incumbent (see stretch, lower_bound,
     tail_eval, scan_shift and scan_two_opt), so they accept the same first
     improving move and return the same sequence.
   - SWSP: swsp.py's weighted_search and pairwise_swap_pass.  The swap pass
     is a line-for-line port.  The weighted search builds the same greedy
     sequences as greedy_construct, which stays the reference, but finds
     each pick from two sorted orders of (score, id) entries instead of a
     scan over every unscheduled job.  While the n - 1 candidates fit one
     64-bit word (n <= 65), the unscheduled jobs are bitsets over order
     positions in two registers; past that, each job has a state byte and
     each order a head, never past the least position of its set, which
     costs at most O(n^2) head steps per triple.  It stops a weight triple
     once its running tardiness reaches the best total, since that triple
     can no longer win.  steptardy_weighted_search gives the argument.  The
     greedy scores are the same double expression, w1*d + w2*p + w3*h
     evaluated left to right from the weights Python computed (see
     _KERNEL_FLAGS), so every comparison and tie-break matches.
   - The exact DP: exact.py's branch_and_bound, a subset DP over Pareto
     labels.  steptardy_branch_and_bound keeps the same fronts as
     _branch_and_bound_python, the reference, and walks back the same way.

   Jobs are rows (a, a + b, d, h) indexed by job id; row 0 is unused.  The
   caller guarantees that seq is a permutation of 1..n, that b >= 0 for
   every job (Instance refuses b < 0) and that no completion time or
   tardiness sum can overflow int64.

   Every pruning rule rests on two facts.  Tardiness terms are never
   negative, so a candidate whose running tardiness reaches the incumbent
   total is no improvement, whatever follows.  And the lemma: with b >= 0,
   a job started at s completes at f(s) = s + p(s), with p(s) = a for
   s <= h and a + b after, so f(s') - f(s) >= s' - s when s' > s.  For an
   unchanged stretch k..end-1 of the incumbent entered at completion time c
   instead of the incumbent's C[k], these consequences follow:
   - if c >= C[k], every job in the stretch starts no earlier than in the
     incumbent, so the stretch adds at least TS[end] - TS[k] and ends at or
     after C[end] + (c - C[k]);
   - if c >= C[k], each job of the stretch that is late in the incumbent
     (its C >= d) completes at least delta = c - C[k] later, so it adds at
     least delta more tardiness: with NT the prefix count of those jobs,
     the stretch adds at least TS[end] - TS[k] + delta * (NT[end] - NT[k]);
   - if c < C[k], every job starts no later than in the incumbent, and
     the earliness E = C[k] - c grows only where a job that starts after
     its h in the incumbent now starts by h and sheds its b, which needs
     the earliness to reach that job's U = (its start) - h.  So while E is
     below every U of the stretch the shift stays exactly E; otherwise it
     is at most D = E + (the sum of those jobs' b).  Each job late in the
     incumbent loses at most that much tardiness, and the stretch ends no
     earlier than C[end] less that much;
   - if c != C[k], the shift keeps its sign and never shrinks, so
     completion times never resynchronise inside the stretch.
   A stretch's tardiness and its end never decrease with its entry time,
   so each bound holds for every entry no earlier than the c it is taken
   at (see stretch).

   No bound overflows.  Each is a sum of non-negative lower bounds on the
   parts of one real candidate's total: the running tardiness of its
   prefix, then what each stretch, moved job and tail adds, where a
   delta * count term is at most the extra tardiness of the jobs it
   counts.  So no partial sum exceeds that candidate's total, which
   Instance._int64_rows keeps below 2^62, as it keeps every completion
   time.  The early term D * count is computed before its part is
   clamped at 0, so it is bounded apart.  With c >= 0, D <= C[k] + (the
   sum of b over the stretch), where C[k] sums the processing times of
   the jobs before the stretch, each at most its ab; so D is at most the
   sum of ab over all jobs, and with count <= n, D * count <= n * (the sum
   of ab), which _int64_rows keeps below 2^62.  TS[end] - TS[k] >= 0, so
   TS[end] - TS[k] - D * count is above -2^62.  (A test instance near the
   bound takes D * count to about 2^61.6.)

   Built and imported by neighborhoods.py on first import; the Python entry
   points are at the end of this file.  */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef struct { i64 a, ab, d, h; } job_t;

/* The completion of job x started at s, and its tardiness at completion c.  */
static inline i64 fin(const job_t *J, i64 x, i64 s)
{
    return s + (s <= J[x].h ? J[x].a : J[x].ab);
}

static inline i64 tard(const job_t *J, i64 x, i64 c)
{
    i64 late = c - J[x].d;
    return late > 0 ? late : 0;
}

/* The incumbent's prefixes over positions 0..k-1: C[k] its completion
   time, TS[k] its tardiness, NT[k] the number of its jobs that are late
   (C >= d) and DB[k] the sum of b over its jobs that start after their h;
   and SU[k], the least U over positions k..n-1, where a job's U is the
   earliness at which, started at s after its h, it would start by h and
   shed its b: s - h, or INT64_MAX when s <= h.  */
typedef struct { i64 *C, *TS, *NT, *DB, *SU; } prefix_t;

static void prefix_state(const i64 *seq, const job_t *J, i64 n, const prefix_t *P)
{
    i64 *C = P->C, *TS = P->TS, *NT = P->NT, *DB = P->DB, *SU = P->SU;
    C[0] = TS[0] = NT[0] = DB[0] = 0;
    for (i64 k = 0; k < n; k++) {
        const job_t *x = &J[seq[k]];
        C[k + 1] = fin(J, seq[k], C[k]);
        TS[k + 1] = TS[k] + tard(J, seq[k], C[k + 1]);
        NT[k + 1] = NT[k] + (C[k + 1] >= x->d);
        DB[k + 1] = DB[k] + (C[k] > x->h ? x->ab - x->a : 0);
    }
    SU[n] = INT64_MAX;
    for (i64 k = n - 1; k >= 0; k--) {
        i64 h = J[seq[k]].h, u = C[k] > h ? C[k] - h : INT64_MAX;
        SU[k] = u < SU[k + 1] ? u : SU[k + 1];
    }
}

/* Append job x at (*c, *t).  Nonzero when *t has reached total: the
   candidate cannot improve and is dropped.

   The step has no branch on whether x is tardy, which depends on the data
   and is hard to predict in a window walk: the tardiness is added with a
   select and *t is tested on every call.  That accepts the same moves as
   testing only after a tardy job: *t never decreases, so once it reaches
   total no continuation can finish below it, and a candidate whose
   running tardiness already equals total on entry (TS[j] == total when
   the incumbent's tail is on time) is only dropped a step sooner.  For the
   same reason a strict > here would change no result either: a candidate
   at exactly total would walk on and be refused later, at the latest by
   tail_eval's final t < total.  */
static inline int step(const job_t *J, i64 x, i64 *c, i64 *t, i64 total)
{
    *c = fin(J, x, *c);
    *t += tard(J, x, *c);
    return *t >= total;
}

/* Append the jobs seq[lo..hi-1] in turn; nonzero as soon as a step is.  */
static inline int walk(const i64 *seq, const job_t *J, i64 lo, i64 hi, i64 *c, i64 *t, i64 total)
{
    for (; lo < hi; lo++)
        if (step(J, seq[lo], c, t, total))
            return 1;
    return 0;
}

/* Append a block: job x, then job y unless y is 0.  */
static inline int put(const job_t *J, i64 x, i64 y, i64 *c, i64 *t, i64 total)
{
    return step(J, x, c, t, total) || (y && step(J, y, c, t, total));
}

/* A lower bound, in O(1), on what the incumbent's stretch lo..hi-1 adds
   to a candidate's tardiness when it is entered at a completion time no
   earlier than e, on either side of C[lo]; and, in *end unless end is
   NULL, a lower bound on the completion time it ends at.  U comes from
   SU[lo], the least U over lo..n-1, which is never above the least U over
   the stretch.  Entered g = e - C[lo] late (g >= 0) or -g early, each job
   of the stretch completes at least g later than in the incumbent: by the
   lemma when g >= 0, and when g < 0 because the earliness stays -g while
   it is below SU[lo].  Once -g reaches SU[lo] (SU[lo] >= 1, so only when
   g < 0), g also takes off DB[hi] - DB[lo], the b that the stretch's jobs
   may shed.  Each job late in the incumbent then changes its tardiness by
   at least g, so the stretch adds at least TS[hi] - TS[lo] + g * (NT[hi]
   - NT[lo]), clamped at 0, and ends no earlier than C[hi] + g.  */
static inline i64 stretch(const prefix_t *P, i64 lo, i64 hi, i64 e, i64 *end)
{
    i64 g = e - P->C[lo];
    if (P->C[lo] - e >= P->SU[lo])
        g -= P->DB[hi] - P->DB[lo];
    if (end)
        *end = P->C[hi] + g;
    i64 t = P->TS[hi] - P->TS[lo] + g * (P->NT[hi] - P->NT[lo]);
    return t > 0 ? t : 0;
}

/* A lower bound, in O(1), on the total of a candidate that has reached
   (c, t) and continues with the incumbent's stretch lo..hi-1, then the
   moved jobs x1 and x2 (each when nonzero), then the unchanged tail from
   position k.  The stretch is bounded by stretch, with U from SU[lo],
   which also gives a lower bound on its end; each moved job then
   completes no earlier than if it started there, and the tail is bounded
   by stretch again, with U from SU[k], entered no earlier than the last
   moved job's end.  A candidate whose bound reaches total is skipped
   before its window walk.  */
static inline i64 lower_bound(const job_t *J, const prefix_t *P, i64 lo, i64 hi, i64 x1, i64 x2, i64 k, i64 c,
                              i64 t, i64 n)
{
    t += stretch(P, lo, hi, c, &c);
    if (x1) {
        c = fin(J, x1, c);
        t += tard(J, x1, c);
    }
    if (x2) {
        c = fin(J, x2, c);
        t += tard(J, x2, c);
    }
    return t + stretch(P, k, n, c, NULL);
}

/* Finish a candidate over the unchanged positions k..n-1, entered at
   completion time c with tardiness t: its total when it strictly beats
   total, else -1.  P holds the incumbent's prefixes.
   - c == C[k]: every tail job starts exactly as in the incumbent, so the
     tail adds the incumbent's TS[n] - TS[k].
   - otherwise, when t plus stretch's bound on the tail, entered late or
     early, already reaches total, the walk is skipped.
   Otherwise the tail is walked to its end: by the lemma, a shift that is
   nonzero on entry never returns to zero.  */
static i64 tail_eval(const i64 *seq, const job_t *J, const prefix_t *P, i64 k, i64 c, i64 t, i64 total, i64 n)
{
    if (c == P->C[k]) {
        t += P->TS[n] - P->TS[k];
        return t < total ? t : -1;
    }
    if (t + stretch(P, k, n, c, NULL) >= total)
        return -1;
    if (walk(seq, J, k, n, &c, &t, total))
        return -1;
    return t < total ? t : -1;
}

/* Each scan applies the first improving move to seq in place and returns
   1, or returns 0 when seq is a local optimum.  A block is kept as its
   first job and its second, or 0 when L = 1.  */

/* Exchange the blocks at i and j >= i + L: the window is the block at j,
   the stretch i+L..j-1, whose U stretch reads from SU[i + L], then the
   block at i.  */
static int scan_exchange(i64 *seq, const job_t *J, const prefix_t *P, i64 total, i64 n, i64 L)
{
    const i64 *C = P->C, *TS = P->TS;
    for (i64 i = 0; i + 2 * L <= n; i++) {
        i64 blk[2] = {seq[i], L == 2 ? seq[i + 1] : 0};
        for (i64 j = i + L; j + L <= n; j++) {
            i64 c = C[i], t = TS[i];
            if (put(J, seq[j], L == 2 ? seq[j + 1] : 0, &c, &t, total)
                || lower_bound(J, P, i + L, j, blk[0], blk[1], j + L, c, t, n) >= total
                || walk(seq, J, i + L, j, &c, &t, total) || put(J, blk[0], blk[1], &c, &t, total))
                continue;
            if (tail_eval(seq, J, P, j + L, c, t, total, n) >= 0) {
                memcpy(seq + i, seq + j, (size_t)L * sizeof *seq);
                memcpy(seq + j, blk, (size_t)L * sizeof *seq);
                return 1;
            }
        }
    }
    return 0;
}

/* Move the block at i so that it starts at j != i.  In both rows the
   tardiness after the block is put does not decrease as j grows: before
   i the block is put at (C[j], TS[j]), and after i at the end of a
   running window that only grows, and a later start never completes
   earlier.  So once the put alone reaches total, the row ends.  */
static int scan_shift(i64 *seq, const job_t *J, const prefix_t *P, i64 total, i64 n, i64 L)
{
    const i64 *C = P->C, *TS = P->TS;
    for (i64 i = 0; i + L <= n; i++) {
        i64 blk[2] = {seq[i], L == 2 ? seq[i + 1] : 0};
        /* Targets before i: the block, then the stretch j..i-1.  */
        for (i64 j = 0; j < i; j++) {
            i64 c = C[j], t = TS[j];
            if (put(J, blk[0], blk[1], &c, &t, total))
                break;
            if (lower_bound(J, P, j, i, 0, 0, i + L, c, t, n) >= total
                || walk(seq, J, j, i, &c, &t, total))
                continue;
            if (tail_eval(seq, J, P, i + L, c, t, total, n) >= 0) {
                memmove(seq + j + L, seq + j, (size_t)(i - j) * sizeof *seq);
                memcpy(seq + j, blk, (size_t)L * sizeof *seq);
                return 1;
            }
        }
        /* Targets after i share the window prefix seq[i+L..j+L-1], started
           at C[i]: one running state serves the row.  Every later target
           keeps that prefix and its tardiness, so once it reaches total no
           later target can improve and the row ends.  */
        i64 c_run = C[i], t_run = TS[i];
        for (i64 j = i + 1; j + L <= n; j++) {
            if (step(J, seq[j + L - 1], &c_run, &t_run, total))
                break;
            i64 c = c_run, t = t_run;
            if (put(J, blk[0], blk[1], &c, &t, total))
                break;
            if (tail_eval(seq, J, P, j + L, c, t, total, n) >= 0) {
                memmove(seq + i, seq + i + L, (size_t)(j - i) * sizeof *seq);
                memcpy(seq + j, blk, (size_t)L * sizeof *seq);
                return 1;
            }
        }
    }
    return 0;
}

/* Row i reverses seq[i+1..j], entered at C[i+1].  Candidate j's window is
   seq[j] followed by candidate j-1's window, which it therefore enters
   later; by the lemma that window then adds at least the same tardiness
   and ends at least as much later.  (e, w) is a lower bound on the end and
   the tardiness of the current window entered at C[i+1], chained from one
   j to the next, and exact after a full window walk.  Every later j
   contains the current window, entered later, so once TS[i+1] + w or a
   walk's running tardiness reaches total, the row ends.  A candidate is
   skipped when stretch's bound on the tail, entered no earlier than e,
   already takes it to total.  */
static int scan_two_opt(i64 *seq, const job_t *J, const prefix_t *P, i64 total, i64 n, i64 L)
{
    (void)L;
    const i64 *C = P->C, *TS = P->TS;
    for (i64 i = 0; i < n - 3; i++) {
        i64 e = C[i + 2], w = TS[i + 2] - TS[i + 1];
        for (i64 j = i + 2; j < n; j++) {
            i64 c0 = fin(J, seq[j], C[i + 1]);
            w += tard(J, seq[j], c0);
            e += c0 - C[i + 1];
            if (TS[i + 1] + w >= total)
                break;
            if (j < i + 3 || TS[i + 1] + w + stretch(P, j + 1, n, e, NULL) >= total)
                continue;
            i64 c = C[i + 1], t = TS[i + 1], k;
            for (k = j; k > i; k--)
                if (step(J, seq[k], &c, &t, total))
                    break;
            if (k > i)
                break;
            e = c;
            w = t - TS[i + 1];
            if (tail_eval(seq, J, P, j + 1, c, t, total, n) >= 0) {
                for (i64 lo = i + 1, hi = j; lo < hi; lo++, hi--) {
                    i64 x = seq[lo];
                    seq[lo] = seq[hi];
                    seq[hi] = x;
                }
                return 1;
            }
        }
    }
    return 0;
}

/* Neighbourhood k's scan and block length: swap, insertion, pairwise
   exchange, couple insertion, two-opt.  */
static const struct {
    int (*scan)(i64 *, const job_t *, const prefix_t *, i64, i64, i64);
    i64 L;
} SCANS[] = {
    {NULL, 0}, {scan_exchange, 1}, {scan_shift, 1}, {scan_exchange, 2}, {scan_shift, 2}, {scan_two_opt, 0},
};

/* Descend seq in place through the neighbourhoods order[0..m-1] (each in
   1..5) in turn, each to its local optimum, and store the final total
   tardiness in *total.  The five prefix arrays share one allocation and
   are recomputed after each accepted move only: a neighbourhood ends with
   a scan that moved nothing, so they still describe seq when the next one
   starts.  Every accepted move must
   lower the total, which also bounds the number of moves; a scan defect
   that breaks this raises RuntimeError instead of looping for ever.
   Returns 0, or -1 with an exception set.

   incumbent (n ids, or NULL for none) is the search's current sequence,
   and bit k - 1 of *proven is set when it is known to be a local optimum
   of neighbourhood k.  A scan depends only on the rows, seq and k, so a
   scan of k while seq equals the incumbent could only find nothing again
   once that bit is set: it is skipped.  A scan there that finds nothing
   sets the bit.  */
static int steptardy_descend(const job_t *J, i64 n, i64 *seq, const i64 *order, i64 m,
                             const i64 *incumbent, i64 *proven, i64 *total)
{
    i64 *C = PyMem_Malloc((size_t)(n + 1) * 5 * sizeof *C);
    if (C == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    prefix_t P = {C, C + (n + 1), C + 2 * (n + 1), C + 3 * (n + 1), C + 4 * (n + 1)};
    const i64 *TS = P.TS;
    prefix_state(seq, J, n, &P);
    for (i64 r = 0; r < m; r++) {
        i64 bit = (i64)1 << (order[r] - 1);
        for (;;) {
            int at = incumbent != NULL && memcmp(seq, incumbent, (size_t)n * sizeof *seq) == 0;
            if (at && (*proven & bit))
                break;
            if (!SCANS[order[r]].scan(seq, J, &P, TS[n], n, SCANS[order[r]].L)) {
                if (at)
                    *proven |= bit;
                break;
            }
            i64 before = TS[n];
            prefix_state(seq, J, n, &P);
            if (TS[n] >= before) {
                PyMem_Free(C);
                PyErr_Format(PyExc_RuntimeError,
                             "C kernel accepted a move of neighborhood %lld that did not lower the total tardiness",
                             (long long)order[r]);
                return -1;
            }
        }
    }
    *total = TS[n];
    PyMem_Free(C);
    return 0;
}

/* The exact DP: exact.py's _branch_and_bound_python, which is its
   reference and gives the argument.  A label is a (completion time,
   tardiness) pair of an ordering of a job subset; the front of a subset
   is its labels by ascending C and descending T, and every front is kept,
   in increasing subset order, in one array.  */
typedef struct { i64 c, t; } label_t;

/* The largest N whose table of 2^N + 1 front offsets (8 MB at 20) the DP
   allocates.  */
#define DP_MAX_JOBS 20

/* Label l extended by job j.  */
static inline label_t extend(const job_t *J, i64 j, label_t l)
{
    i64 c = fin(J, j, l.c);
    return (label_t){c, l.t + tard(J, j, c)};
}

/* The optimum over jobs 1..n, 1 <= n <= DP_MAX_JOBS, in *value, one
   optimal sequence in seq and the number of labels kept, the empty set's
   excepted, in *labels.  Returns 0, or -1 with MemoryError set.

   Python makes the front of mask from every label of every mask - j
   extended by job j, sorted by (C, T), keeping a label only when its T is
   below the last kept T.  That front depends only on the candidates'
   values, so here they are merged instead of sorted: mask - j's front
   extended by j is a run by ascending C, since a completion time is
   increasing in the start time (the lemma above), and each step takes the
   smallest (C, T) among the runs' heads.  The sequence is rebuilt
   backwards from the full set's last label, the least tardy one: at each
   step the lowest job j, and the first label of mask - j, that extends to
   the current label.  */
static int steptardy_branch_and_bound(const job_t *J, i64 n, i64 *seq, i64 *value, i64 *labels)
{
    i64 full = ((i64)1 << n) - 1;
    size_t *start = PyMem_Malloc((size_t)(full + 2) * sizeof *start), size = 1024;
    label_t *L = PyMem_Malloc(size * sizeof *L);
    if (start == NULL || L == NULL)
        goto no_memory;
    start[0] = 0;
    start[1] = 1;
    L[0] = (label_t){0, 0};
    for (i64 mask = 1; mask <= full; mask++) {
        struct { size_t p, end; i64 j; label_t head; } run[DP_MAX_JOBS];
        i64 k = 0;
        size_t end = start[mask];
        for (i64 j = 1; j <= n; j++) {
            i64 sub = mask ^ (i64)1 << (j - 1);
            if (sub > mask) /* j is not in mask */
                continue;
            run[k].p = start[sub];
            run[k].end = start[sub + 1];
            run[k++].j = j;
            end += start[sub + 1] - start[sub];
        }
        if (end > size) {
            while (end > size)
                size *= 2;
            label_t *grown = PyMem_Realloc(L, size * sizeof *L);
            if (grown == NULL)
                goto no_memory;
            L = grown;
        }
        for (i64 r = 0; r < k; r++)
            run[r].head = extend(J, run[r].j, L[run[r].p]);
        end = start[mask];
        while (k > 0) {
            i64 q = 0;
            for (i64 r = 1; r < k; r++)
                if (run[r].head.c < run[q].head.c || (run[r].head.c == run[q].head.c && run[r].head.t < run[q].head.t))
                    q = r;
            if (end == start[mask] || run[q].head.t < L[end - 1].t)
                L[end++] = run[q].head;
            if (++run[q].p == run[q].end)
                run[q] = run[--k];
            else
                run[q].head = extend(J, run[q].j, L[run[q].p]);
        }
        start[mask + 1] = end;
    }
    label_t cur = L[start[full + 1] - 1];
    *value = cur.t;
    *labels = (i64)start[full + 1] - 1;
    for (i64 mask = full, k = n - 1; k >= 0; k--) {
        i64 j = 1;
        size_t p = 0;
        for (; j <= n; j++) {
            i64 sub = mask ^ (i64)1 << (j - 1);
            if (sub > mask)
                continue;
            for (p = start[sub]; p < start[sub + 1]; p++) {
                label_t x = extend(J, j, L[p]);
                if (x.c == cur.c && x.t == cur.t)
                    break;
            }
            if (p < start[sub + 1])
                break;
        }
        seq[k] = j;
        cur = L[p];
        mask ^= (i64)1 << (j - 1);
    }
    PyMem_Free(start);
    PyMem_Free(L);
    return 0;
no_memory:
    PyMem_Free(start);
    PyMem_Free(L);
    PyErr_NoMemory();
    return -1;
}

/* SWSP.  One entry of the greedy's sorted orders: a job id with its score
   under the current weight triple.  x comes before y in the greedy's order
   when its score is smaller, or equal and its id smaller, as
   greedy_construct's (key, j) tuples compare.  Scores rarely tie, so the
   ids are compared only on a tie: GCC compiles the || form to compare the
   ids first, a branch that goes either way at random.  */
typedef struct { double key; i64 id; } entry_t;

static inline int before(entry_t x, entry_t y)
{
    if (x.key != y.key)
        return x.key < y.key;
    return x.id < y.id;
}

/* Insertion sort of ord[0..m-1] by (key, id).  That is a strict order, so
   the result does not depend on the order ord starts in, and an order
   carried over from a neighbouring weight triple is nearly sorted.  */
static void sort_entries(entry_t *ord, i64 m)
{
    for (i64 r = 1; r < m; r++) {
        entry_t x = ord[r];
        i64 q = r;
        for (; q > 0 && before(x, ord[q - 1]); q--)
            ord[q] = ord[q - 1];
        ord[q] = x;
    }
}

/* A job's row as doubles, for the greedy's scores.  */
typedef struct { double a, ab, d, h; } jobd_t;

/* weighted_search over the m = n * n triples of grid (w1, w2, w3 each),
   n >= 1: best_seq gets the first sequence that reaches the best total,
   trace[t] the best total after triple t.  Returns 0, or -1 with
   MemoryError set.

   Each step of greedy_construct appends the unscheduled job with the
   smallest (score, id), where a job's score is w1*d + w2*a + w3*h while the
   completion time c <= h and w1*d + w2*(a + b) + w3*h after.  c only
   grows, so a job switches from the first score to the second once and
   never back.  The r = n - 1 jobs after the first (the smallest due date,
   the smaller id on a tie, whatever the weights) are kept in two orders of
   (score, id) entries, ord_a by the first score and ord_ab by the second:
   A holds the unscheduled jobs with c <= h and B those with c > h.  by_h
   lists the jobs by h, so each one moves from A to B as c passes its h.
   The member of A at the least position of ord_a has the smallest
   (score, id) among A's jobs, and likewise for B in ord_ab, so the smaller
   of the two is the job the scan would pick.  The orders are carried from
   one triple to the next; each triple computes the scores in place from
   the rows as doubles, converted once, and sorts the orders again.

   While the r jobs fit one 64-bit word (n <= 65), A and B are bitsets over
   order positions in two registers, and a least position is the lowest set
   bit.  Past that, state[x] is 0 while job x is in A, 1 once it is in B
   and 2 once it is scheduled, and each set has a head, a position in its
   order that is never past the set's least member: a head moves forward
   only over positions whose jobs are not in its set, and the least
   member moves back only when a job enters the set.  A only loses jobs,
   so A's head only moves forward.  B's head drops to pos_ab[x] when job x
   enters B below it.  Before each pick both heads move forward to their
   sets' least members.  A's head steps at most r times per triple; B's
   head may step over the same positions again after each of up to r
   entries, so at most O(r^2) times, the order of the scan it replaces.

   A triple after the first stops once its running tardiness reaches the
   best total so far: tardiness terms are never negative, so its total
   would be at least the best, and on a tie the earlier triple wins.  Its
   trace entry is the best so far either way.  */
static int steptardy_weighted_search(const job_t *J, i64 n, const double *grid, i64 *best_seq, i64 *trace)
{
    i64 r = n - 1, m = n * n;
    /* one block: in 8-byte units the i64 arrays, the rows as doubles (4
       units each) and the orders (2 units per entry), then the state bytes
       of job ids 0..n */
    i64 *seq = PyMem_Malloc((size_t)(n + 5 * r + 6 * (n + 1)) * sizeof *seq + (size_t)(n + 1));
    if (seq == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    i64 *by_h = seq + n, *pos_a = by_h + r, *pos_ab = pos_a + n + 1;
    jobd_t *F = (jobd_t *)(pos_ab + n + 1);
    entry_t *ord_a = (entry_t *)(F + n + 1), *ord_ab = ord_a + r;
    unsigned char *state = (unsigned char *)(ord_ab + r);
    i64 first = 1;
    for (i64 j = 2; j <= n; j++)
        if (J[j].d < J[first].d)
            first = j;
    for (i64 j = 1, q = 0; j <= n; j++) {
        F[j] = (jobd_t){(double)J[j].a, (double)J[j].ab, (double)J[j].d, (double)J[j].h};
        if (j != first) {
            ord_a[q].id = ord_ab[q].id = by_h[q] = j;
            q++;
        }
    }
    /* by h; the order among equal h does not matter */
    for (i64 q = 1; q < r; q++) {
        i64 x = by_h[q], s = q;
        for (; s > 0 && J[by_h[s - 1]].h > J[x].h; s--)
            by_h[s] = by_h[s - 1];
        by_h[s] = x;
    }
    /* A at the start of each triple on the register path: bits 0..r-1 */
    uint64_t all = r < 64 ? ((uint64_t)1 << r) - 1 : ~(uint64_t)0;
    i64 best_val = INT64_MAX; /* no bound on the first triple */
    for (i64 t = 0; t < m; t++) {
        const double *w = grid + 3 * t;
        for (i64 q = 0; q < r; q++) {
            const jobd_t *x = &F[ord_a[q].id], *y = &F[ord_ab[q].id];
            ord_a[q].key = w[0] * x->d + w[1] * x->a + w[2] * x->h;
            ord_ab[q].key = w[0] * y->d + w[1] * y->ab + w[2] * y->h;
        }
        sort_entries(ord_a, r);
        sort_entries(ord_ab, r);
        for (i64 q = 0; q < r; q++) {
            pos_a[ord_a[q].id] = q;
            pos_ab[ord_ab[q].id] = q;
        }
        seq[0] = first;
        i64 c = J[first].a; /* the first start is 0 <= h for any h >= 0 */
        i64 val = tard(J, first, c), moved = 0;
        if (r <= 64) {
            uint64_t a = all, b = 0;
            for (i64 k = 1; k < n && val < best_val; k++) {
                for (; moved < r && J[by_h[moved]].h < c; moved++) {
                    i64 x = by_h[moved];
                    if (a >> pos_a[x] & 1) {
                        a ^= (uint64_t)1 << pos_a[x];
                        b |= (uint64_t)1 << pos_ab[x];
                    }
                }
                i64 x;
                if (b == 0 || (a != 0 && before(ord_a[__builtin_ctzll(a)], ord_ab[__builtin_ctzll(b)]))) {
                    x = ord_a[__builtin_ctzll(a)].id;
                    a &= a - 1;
                } else {
                    x = ord_ab[__builtin_ctzll(b)].id;
                    b &= b - 1;
                }
                seq[k] = x;
                c = fin(J, x, c);
                val += tard(J, x, c);
            }
        } else {
            memset(state, 0, (size_t)(n + 1));
            i64 qa = 0, qb = r; /* the heads of A and of B, which starts empty */
            for (i64 k = 1; k < n && val < best_val; k++) {
                for (; moved < r && J[by_h[moved]].h < c; moved++) {
                    i64 x = by_h[moved];
                    if (state[x] == 0) {
                        state[x] = 1;
                        if (pos_ab[x] < qb)
                            qb = pos_ab[x];
                    }
                }
                while (qa < r && state[ord_a[qa].id] != 0)
                    qa++;
                while (qb < r && state[ord_ab[qb].id] != 1)
                    qb++;
                i64 x = qb == r || (qa < r && before(ord_a[qa], ord_ab[qb])) ? ord_a[qa].id : ord_ab[qb].id;
                state[x] = 2;
                seq[k] = x;
                c = fin(J, x, c);
                val += tard(J, x, c);
            }
        }
        /* a triple stopped at the best has val >= best_val: no improvement */
        if (val < best_val) {
            memcpy(best_seq, seq, (size_t)n * sizeof *seq);
            best_val = val;
        }
        trace[t] = best_val;
    }
    PyMem_Free(seq);
    return 0;
}

/* pairwise_swap_pass in place: every ordered pair i != j, a swap kept only
   when it strictly lowers the total.  The running tardiness never
   decreases, so walk returns 0 exactly when the final total is below best.  */
static void steptardy_pairwise_swap_pass(const job_t *J, i64 n, i64 *seq)
{
    i64 c = 0, best = 0;
    walk(seq, J, 0, n, &c, &best, INT64_MAX);
    for (i64 i = 0; i < n; i++) {
        for (i64 j = 0; j < n; j++) {
            if (i == j)
                continue;
            i64 x = seq[i], t = 0;
            seq[i] = seq[j];
            seq[j] = x;
            c = 0;
            if (walk(seq, J, 0, n, &c, &t, best)) {
                seq[j] = seq[i];
                seq[i] = x;
            } else {
                best = t;
            }
        }
    }
}

/* The Python entry points.  Each reads its arguments into C arrays, calls
   one function above and builds its result, so it never writes to the
   caller's objects.  As in CPython, a function that fails sets its
   exception where it finds the failure and returns NULL (or -1), and each
   argument is checked as it is read, before any C above runs.  rows is
   Instance._int64_rows: bytes holding one row per job id 0..N, with
   N >= 1 jobs.  A sequence or an order is a list or a tuple of ints
   (PySequence_Fast copies any other sequence into a list); an entry that
   is not an int raises TypeError, one past int64 OverflowError, and a job
   id outside 1..N or a neighbourhood id outside 1..5 ValueError, so no
   argument makes a function read outside the rows or SCANS.  descend's
   incumbent is None or a sequence as long as its sequence, and its proven
   an int in 0..31; branch_and_bound refuses more than DP_MAX_JOBS jobs
   with ValueError.  Whether a sequence is a permutation is for the Python
   callers to check.  */

/* The job rows in rows, with the largest job id in *last; NULL with
   TypeError set unless rows is bytes of whole rows for ids 0..N, N >= 1.  */
static const job_t *job_rows(PyObject *rows, i64 *last)
{
    Py_ssize_t size = PyBytes_Check(rows) ? PyBytes_GET_SIZE(rows) : 0;
    if (size < 2 * (Py_ssize_t)sizeof(job_t) || size % (Py_ssize_t)sizeof(job_t) != 0) {
        PyErr_SetString(PyExc_TypeError, "rows must be bytes of int64 rows (a, a + b, d, h) for job ids 0..N, N >= 1");
        return NULL;
    }
    *last = size / (Py_ssize_t)sizeof(job_t) - 1;
    return (const job_t *)PyBytes_AS_STRING(rows);
}

/* The entries of the sequence ids as a new array of *n int64s, to be freed
   with PyMem_Free; NULL with an exception set unless each is an int in
   1..hi.  what names an entry in the message.  Only an int
   is read, so no Python code (an __index__) runs while a caller's list is
   being read.  */
static i64 *read_ids(PyObject *ids, const char *what, i64 hi, Py_ssize_t *n)
{
    PyObject *fast = PySequence_Fast(ids, "expected a sequence of ids");
    if (fast == NULL)
        return NULL;
    *n = PySequence_Fast_GET_SIZE(fast);
    i64 *v = PyMem_Malloc((size_t)*n * sizeof *v);
    if (v == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t k = 0; v != NULL && k < *n; k++) {
        PyObject *x = PySequence_Fast_GET_ITEM(fast, k);
        if (!PyLong_Check(x))
            PyErr_Format(PyExc_TypeError, "expected an int, got %.100s", Py_TYPE(x)->tp_name);
        else if ((v[k] = PyLong_AsLongLong(x)) >= 1 && v[k] <= hi)
            continue;
        else if (v[k] != -1 || !PyErr_Occurred()) /* else OverflowError is set */
            PyErr_Format(PyExc_ValueError, "%s %lld outside 1..%lld", what, (long long)v[k], (long long)hi);
        PyMem_Free(v);
        v = NULL;
    }
    Py_DECREF(fast);
    return v;
}

/* A new list of v[0..n-1], or NULL with an exception set.  */
static PyObject *list_of(const i64 *v, i64 n)
{
    PyObject *list = PyList_New(n);
    for (i64 k = 0; list != NULL && k < n; k++) {
        PyObject *x = PyLong_FromLongLong(v[k]);
        if (x == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, k, x);
    }
    return list;
}

static PyObject *py_descend(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError, "descend takes 5 arguments (%zd given)", nargs);
    i64 last, total, proven;
    Py_ssize_t n, m, ni;
    const job_t *J = job_rows(args[0], &last);
    i64 *seq = J != NULL ? read_ids(args[1], "job id", last, &n) : NULL;
    i64 *order = seq != NULL ? read_ids(args[2], "neighborhood id", 5, &m) : NULL;
    i64 *incumbent = NULL;
    int ok = order != NULL;
    if (ok && args[3] != Py_None) {
        incumbent = read_ids(args[3], "job id", last, &ni);
        ok = incumbent != NULL;
        if (ok && ni != n) {
            PyErr_Format(PyExc_ValueError, "incumbent has %zd jobs, sequence %zd", ni, n);
            ok = 0;
        }
    }
    if (ok) {
        proven = PyLong_Check(args[4]) ? PyLong_AsLongLong(args[4]) : -1;
        ok = proven >= 0 && proven <= 31;
        if (!ok && !PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "proven must be an int in 0..31");
    }
    PyObject *result = NULL;
    if (ok && steptardy_descend(J, n, seq, order, m, incumbent, &proven, &total) == 0) {
        PyObject *found = list_of(seq, n);
        result = found != NULL ? Py_BuildValue("(NLL)", found, (long long)total, (long long)proven) : NULL;
    }
    PyMem_Free(incumbent);
    PyMem_Free(order);
    PyMem_Free(seq);
    return result;
}

static PyObject *py_branch_and_bound(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 1)
        return PyErr_Format(PyExc_TypeError, "branch_and_bound takes 1 argument (%zd given)", nargs);
    i64 n, value, labels;
    const job_t *J = job_rows(args[0], &n);
    if (J == NULL)
        return NULL;
    if (n > DP_MAX_JOBS)
        return PyErr_Format(PyExc_ValueError, "branch_and_bound takes at most %d jobs (%lld given)", DP_MAX_JOBS,
                            (long long)n);
    i64 *seq = PyMem_Malloc((size_t)n * sizeof *seq);
    if (seq == NULL)
        return PyErr_NoMemory();
    PyObject *result = NULL;
    if (steptardy_branch_and_bound(J, n, seq, &value, &labels) == 0) {
        PyObject *found = list_of(seq, n);
        result = found != NULL ? Py_BuildValue("(LNL)", (long long)value, found, (long long)labels) : NULL;
    }
    PyMem_Free(seq);
    return result;
}

static PyObject *py_weighted_search(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "weighted_search takes 2 arguments (%zd given)", nargs);
    i64 n;
    const job_t *J = job_rows(args[0], &n);
    if (J == NULL)
        return NULL;
    i64 m = n * n;
    if (!PyBytes_Check(args[1]) || PyBytes_GET_SIZE(args[1]) != 3 * m * (Py_ssize_t)sizeof(double))
        return PyErr_Format(PyExc_TypeError, "weights must be bytes of 3 * %lld doubles", (long long)m);
    /* the best sequence, then the trace */
    i64 *seq = PyMem_Malloc((size_t)(n + m) * sizeof *seq);
    if (seq == NULL)
        return PyErr_NoMemory();
    PyObject *result = NULL;
    if (steptardy_weighted_search(J, n, (const double *)PyBytes_AS_STRING(args[1]), seq, seq + n) == 0) {
        PyObject *best = list_of(seq, n), *trace = best != NULL ? list_of(seq + n, m) : NULL;
        if (trace != NULL)
            result = Py_BuildValue("(NN)", best, trace);
        else
            Py_XDECREF(best);
    }
    PyMem_Free(seq);
    return result;
}

static PyObject *py_pairwise_swap_pass(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "pairwise_swap_pass takes 2 arguments (%zd given)", nargs);
    i64 last;
    Py_ssize_t n;
    const job_t *J = job_rows(args[0], &last);
    i64 *seq = J != NULL ? read_ids(args[1], "job id", last, &n) : NULL;
    if (seq == NULL)
        return NULL;
    steptardy_pairwise_swap_pass(J, n, seq);
    PyObject *result = list_of(seq, n);
    PyMem_Free(seq);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"descend", (PyCFunction)(void (*)(void))py_descend, METH_FASTCALL,
     "descend(rows, sequence, order, incumbent, proven) -> (sequence, total, proven)\n\n"
     "Descend through the neighborhoods in order, each to its fixpoint, skipping\n"
     "each scan at the incumbent (or None) of a neighborhood whose bit k - 1 is\n"
     "set in proven; the bits of the scans there that found nothing are added."},
    {"branch_and_bound", (PyCFunction)(void (*)(void))py_branch_and_bound, METH_FASTCALL,
     "branch_and_bound(rows) -> (value, sequence, labels)\n\n"
     "The exact Pareto-label DP over the jobs in rows."},
    {"weighted_search", (PyCFunction)(void (*)(void))py_weighted_search, METH_FASTCALL,
     "weighted_search(rows, weights) -> (sequence, trace)\n\n"
     "SWSP's greedy over the n * n weight triples in weights, for the n jobs in rows."},
    {"pairwise_swap_pass", (PyCFunction)(void (*)(void))py_pairwise_swap_pass, METH_FASTCALL,
     "pairwise_swap_pass(rows, sequence) -> sequence\n\n"
     "SWSP's swap pass, keeping each swap that lowers the total."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "steptardy._kernel",
    .m_doc = "The C kernel of steptardy (_kernel.c).",
    .m_size = 0,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
