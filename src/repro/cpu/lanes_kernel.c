/* Lane-parallel group kernel: the flat state machine of
 * repro/cpu/timing.py:run_flat_general, transcribed to C and run once
 * per lane over the shared decoded trace columns.
 *
 * Each lane may carry state in (a start cycle, L1/L2 images with
 * per-way lock bits, DRAM open-row/bank-free state) and two policy
 * hooks: lock-aware installs (SetAssociativeCache.fill: the victim is
 * the least-recently-used unlocked way, and the fill is refused when
 * every way is locked) and an L1-bypass line predicate (the
 * disable-cache scheme: L1Controller.access_line's bypass branch).
 *
 * The transcription is branch-for-branch: the MissQueue drain order
 * (stable completion sort on insertion order), the fill-queue
 * drop/merge rules, the MSHR-full stall, the MLP charge table with its
 * prune threshold, and the end-of-run settle loop all mirror the
 * Python kernel exactly, so results are bit-identical per lane.  Every
 * quantity fits int64 (lines < 2^32, cycles grow by at most a few
 * hundred per record) and every division runs on non-negative
 * operands, so C arithmetic matches Python's exactly.
 *
 * Compiled on demand by repro/cpu/lanes.py with the host toolchain and
 * loaded via ctypes; when no compiler is available the Python per-lane
 * kernel in that module is the fallback.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ABI stamp checked by repro/cpu/lanes.py before it binds run_lanes:
 * bump on any change to run_lanes' arguments or their layout. */
const int64_t run_lanes_abi = 2;

#define RT_NORMAL 0
#define RT_NOFILL 1
#define RT_RANDOM_FILL 2

/* per-lane lane_info row: policy_kind, start cycle, the lane's row of
 * fill offsets (random-fill lanes only), then offsets into the state
 * buffer (-1 = default) of the L1 image, the L2 image and the DRAM
 * state, then the bypass ranges' offset and pair count */
#define LANE_INFO 8

/* mirrors MissQueue.NEVER */
#define NEVER (((int64_t)1) << 62)

/* mirrors repro.cpu.timing.CHARGED_PRUNE_THRESHOLD */
#define PRUNE_AT 8192
/* open-addressing table: load factor <= 0.25 at the prune bound */
#define CH_CAP 32768
#define CH_MASK (CH_CAP - 1)

typedef struct {
    int64_t key[CH_CAP];        /* -1 = empty (lines are >= 0) */
    int64_t val[CH_CAP];
    int64_t count;
} ChargeMap;

static void ch_clear(ChargeMap *m)
{
    memset(m->key, 0xff, sizeof(m->key));
    m->count = 0;
}

static inline uint64_t ch_slot(int64_t key)
{
    return (((uint64_t)key) * 0x9E3779B97F4A7C15ULL >> 32) & CH_MASK;
}

/* returns 1 and *val on hit, 0 on miss */
static inline int ch_get(const ChargeMap *m, int64_t key, int64_t *val)
{
    uint64_t i = ch_slot(key);
    while (m->key[i] != -1) {
        if (m->key[i] == key) {
            *val = m->val[i];
            return 1;
        }
        i = (i + 1) & CH_MASK;
    }
    return 0;
}

static inline void ch_put(ChargeMap *m, int64_t key, int64_t val)
{
    uint64_t i = ch_slot(key);
    while (m->key[i] != -1) {
        if (m->key[i] == key) {
            m->val[i] = val;
            return;
        }
        i = (i + 1) & CH_MASK;
    }
    m->key[i] = key;
    m->val[i] = val;
    m->count++;
}

/* prune_charged: drop entries whose completion has passed */
static void ch_prune(ChargeMap *m, ChargeMap *scratch, int64_t now)
{
    int64_t i;
    ch_clear(scratch);
    for (i = 0; i < CH_CAP; i++) {
        if (m->key[i] != -1 && m->val[i] > now)
            ch_put(scratch, m->key[i], m->val[i]);
    }
    memcpy(m, scratch, sizeof(*m));
}

typedef struct {
    /* shared columns */
    const int64_t *lines;
    int64_t n_records;
    /* geometry / policy scalars */
    int64_t l1_set_mask, l1_assoc;
    int64_t l2_set_mask, l2_assoc;
    int64_t l2_hit_latency;
    int64_t mq_capacity, fill_cap, fill_queue_capacity;
    int64_t hit_cost, mlp, credit;
    int64_t dram_lines_per_row, dram_banks;
    int64_t dram_hit_latency, dram_miss_latency;
    int64_t dram_hit_busy, dram_miss_busy;
    /* per-lane state */
    int64_t *l1;                /* l1_num_sets * l1_assoc, MRU first */
    int64_t *l2;                /* l2_num_sets * l2_assoc, MRU first */
    int64_t *l1_lock, *l2_lock; /* per-way lock bits; NULL = none set */
    const int64_t *bypass;      /* [lo, hi) line ranges skipping the L1 */
    int64_t n_bypass;
    int64_t *mq_line, *mq_complete, *mq_type;   /* insertion order */
    int64_t mq_n;
    int64_t *fq;                /* ring buffer */
    int64_t fq_head, fq_n, fq_cap;
    int64_t *open_row, *bank_free;
    ChargeMap *charged, *scratch;
    int64_t nc;
    int fills_blocked;
    /* counters */
    int64_t hits, demand_misses, l2_accesses, l2_misses;
    int64_t memory_lines, rf_issued;
} Lane;

static inline int64_t fq_at(const Lane *ln, int64_t i)
{
    return ln->fq[(ln->fq_head + i) % ln->fq_cap];
}

static inline void fq_push(Lane *ln, int64_t line)
{
    ln->fq[(ln->fq_head + ln->fq_n) % ln->fq_cap] = line;
    ln->fq_n++;
}

static inline void fq_pop(Lane *ln)
{
    ln->fq_head = (ln->fq_head + 1) % ln->fq_cap;
    ln->fq_n--;
}

/* MRU-first set scan; -1 marks empty ways */
static inline int set_hit(int64_t *ways, int64_t assoc, int64_t line)
{
    int64_t i;
    for (i = 0; i < assoc; i++) {
        if (ways[i] == line)
            return 1;
        if (ways[i] == -1)
            return 0;
    }
    return 0;
}

/* hit refresh: move to MRU (slot 0); a lock bit moves with its way */
static inline void set_touch(int64_t *ways, int64_t *locks, int64_t assoc,
                             int64_t line)
{
    int64_t i, bit;
    if (ways[0] == line)
        return;
    for (i = 1; i < assoc; i++) {
        if (ways[i] == line) {
            memmove(ways + 1, ways, i * sizeof(int64_t));
            ways[0] = line;
            if (locks) {
                bit = locks[i];
                memmove(locks + 1, locks, i * sizeof(int64_t));
                locks[0] = bit;
            }
            return;
        }
    }
}

/* install at MRU, unlocked; a full set evicts its least-recently-used
 * unlocked way, and the fill is refused when every way is locked */
static inline void set_install(int64_t *ways, int64_t *locks, int64_t assoc,
                               int64_t line)
{
    int64_t n = assoc;
    while (n > 0 && ways[n - 1] == -1)
        n--;
    if (n >= assoc) {
        n = assoc - 1;
        if (locks) {
            while (n >= 0 && locks[n])
                n--;
            if (n < 0)
                return;
        }
    }
    memmove(ways + 1, ways, n * sizeof(int64_t));
    ways[0] = line;
    if (locks) {
        memmove(locks + 1, locks, n * sizeof(int64_t));
        locks[0] = 0;
    }
}

/* the L1-bypass predicate: line inside one of the lane's ranges */
static inline int bypassed(const Lane *ln, int64_t line)
{
    int64_t i;
    for (i = 0; i < ln->n_bypass; i++)
        if (line >= ln->bypass[2 * i] && line < ln->bypass[2 * i + 1])
            return 1;
    return 0;
}

/* L2Cache.access with DramModel.access inlined */
static int64_t l2_access(Lane *ln, int64_t line, int64_t at)
{
    int64_t base = (line & ln->l2_set_mask) * ln->l2_assoc;
    int64_t *ways = ln->l2 + base;
    int64_t *locks = ln->l2_lock ? ln->l2_lock + base : NULL;
    int64_t row, bank, start, done;
    ln->l2_accesses++;
    if (set_hit(ways, ln->l2_assoc, line)) {
        set_touch(ways, locks, ln->l2_assoc, line);
        return at + ln->l2_hit_latency;
    }
    ln->l2_misses++;
    row = line / ln->dram_lines_per_row;
    bank = row % ln->dram_banks;
    start = ln->bank_free[bank];
    at += ln->l2_hit_latency;
    if (start < at)
        start = at;
    if (ln->open_row[bank] == row) {
        done = start + ln->dram_hit_latency;
        ln->bank_free[bank] = start + ln->dram_hit_busy;
    } else {
        ln->open_row[bank] = row;
        done = start + ln->dram_miss_latency;
        ln->bank_free[bank] = start + ln->dram_miss_busy;
    }
    ln->memory_lines++;
    set_install(ways, locks, ln->l2_assoc, line);
    return done;
}

static inline int mq_find(const Lane *ln, int64_t line)
{
    int64_t i;
    for (i = 0; i < ln->mq_n; i++)
        if (ln->mq_line[i] == line)
            return (int)i;
    return -1;
}

static inline void mq_put(Lane *ln, int64_t line, int64_t complete_at,
                          int64_t type)
{
    ln->mq_line[ln->mq_n] = line;
    ln->mq_complete[ln->mq_n] = complete_at;
    ln->mq_type[ln->mq_n] = type;
    ln->mq_n++;
    if (complete_at < ln->nc)
        ln->nc = complete_at;
}

/* MissQueue.drain + L1 install: retire completed entries in stable
 * completion order (ties break on insertion order) — the install
 * order matters when two retiring lines share an L1 set. */
static int64_t drain(Lane *ln, int64_t at)
{
    int64_t done_line[64], done_at[64], done_type[64];
    int64_t n_done = 0, i, j, w = 0, nxt = NEVER;
    if (at < ln->nc)
        return 0;
    for (i = 0; i < ln->mq_n; i++) {
        if (ln->mq_complete[i] <= at) {
            /* stable insertion sort by completion */
            j = n_done;
            while (j > 0 && done_at[j - 1] > ln->mq_complete[i]) {
                done_at[j] = done_at[j - 1];
                done_line[j] = done_line[j - 1];
                done_type[j] = done_type[j - 1];
                j--;
            }
            done_at[j] = ln->mq_complete[i];
            done_line[j] = ln->mq_line[i];
            done_type[j] = ln->mq_type[i];
            n_done++;
        } else {
            ln->mq_line[w] = ln->mq_line[i];
            ln->mq_complete[w] = ln->mq_complete[i];
            ln->mq_type[w] = ln->mq_type[i];
            if (ln->mq_complete[i] < nxt)
                nxt = ln->mq_complete[i];
            w++;
        }
    }
    for (i = 0; i < n_done; i++) {
        if (done_type[i] != RT_NOFILL) {
            int64_t dline = done_line[i];
            int64_t base = (dline & ln->l1_set_mask) * ln->l1_assoc;
            if (!set_hit(ln->l1 + base, ln->l1_assoc, dline))
                set_install(ln->l1 + base,
                            ln->l1_lock ? ln->l1_lock + base : NULL,
                            ln->l1_assoc, dline);
        }
    }
    ln->mq_n = w;
    ln->nc = nxt;
    return n_done;
}

/* L1Controller._issue_random_fills */
static void issue_fills(Lane *ln, int64_t at)
{
    while (ln->fq_n > 0) {
        int64_t head = fq_at(ln, 0);
        int idx;
        if (set_hit(ln->l1 + (head & ln->l1_set_mask) * ln->l1_assoc,
                    ln->l1_assoc, head)) {
            fq_pop(ln);
            continue;
        }
        idx = mq_find(ln, head);
        if (idx >= 0) {
            fq_pop(ln);
            if (ln->mq_type[idx] == RT_NOFILL) {
                ln->mq_type[idx] = RT_RANDOM_FILL;
                ln->rf_issued++;
            }
            continue;
        }
        if (ln->mq_n >= ln->fill_cap)
            break;
        fq_pop(ln);
        ln->rf_issued++;
        mq_put(ln, head, l2_access(ln, head, at), RT_RANDOM_FILL);
    }
    ln->fills_blocked = ln->fq_n > 0;
}

/* one lane's full trace pass from cycle ``now``; returns 0 on success */
static int run_one_lane(Lane *ln, const int64_t *steps, int64_t now,
                        int64_t policy_kind, const int64_t *offsets,
                        int64_t *out)
{
    int64_t off_i = 0, i;
    const int64_t *lines = ln->lines;
    for (i = 0; i < ln->n_records; i++) {
        int64_t line = lines[i];
        int64_t *ways, *locks;
        int64_t completion, stall, access_now, complete_at, remaining;
        int idx;
        now += steps[i];
        if (now >= ln->nc) {
            drain(ln, now);
            ln->fills_blocked = 0;
        }
        if (ln->n_bypass && bypassed(ln, line)) {
            /* L1Controller.access_line's bypass: one L2 access charged
             * as a fresh demand miss with no MSHR stall; the L1, MSHR
             * and fill queue are untouched */
            complete_at = l2_access(ln, line, now);
            ln->demand_misses++;
            stall = 0;
            goto charge;
        }
        ways = ln->l1 + (line & ln->l1_set_mask) * ln->l1_assoc;
        locks = ln->l1_lock
            ? ln->l1_lock + (line & ln->l1_set_mask) * ln->l1_assoc : NULL;
        if (set_hit(ways, ln->l1_assoc, line)) {
            ln->hits++;
            set_touch(ways, locks, ln->l1_assoc, line);
            if (ln->fq_n > 0 && !ln->fills_blocked)
                issue_fills(ln, now);
            now += ln->hit_cost;
            continue;
        }
        idx = mq_find(ln, line);
        if (idx < 0 && ln->fq_n > 0 && !ln->fills_blocked) {
            /* queued random fills are older than this demand miss */
            issue_fills(ln, now);
            idx = mq_find(ln, line);
        }
        if (idx >= 0) {
            int64_t prior;
            completion = ln->mq_complete[idx];
            if (completion < now)
                completion = now;
            if (ch_get(ln->charged, line, &prior) && prior == completion) {
                now += ln->hit_cost;
            } else {
                ch_put(ln->charged, line, completion);
                now += ln->hit_cost;
                remaining = completion - now - ln->credit;
                if (remaining > 0)
                    now += (remaining + ln->mlp - 1) / ln->mlp;
            }
            if (ln->charged->count >= PRUNE_AT)
                ch_prune(ln->charged, ln->scratch, now);
            continue;
        }
        stall = 0;
        access_now = now;
        if (ln->mq_n >= ln->mq_capacity) {
            stall = ln->nc - now;
            if (stall < 0)
                stall = 0;
            access_now = now + stall;
            drain(ln, access_now);
            ln->fills_blocked = 0;
            if (set_hit(ways, ln->l1_assoc, line)) {
                /* the drained line was the one we wanted */
                ln->hits++;
                set_touch(ways, locks, ln->l1_assoc, line);
                now += ln->hit_cost;
                continue;
            }
        }
        ln->demand_misses++;
        if (policy_kind == 2) {
            int64_t fill_line;
            complete_at = l2_access(ln, line, access_now);
            mq_put(ln, line, complete_at, RT_NOFILL);
            ln->fills_blocked = 0;
            fill_line = line + offsets[off_i];
            off_i++;
            if (ln->fq_n > 0) {
                /* parked requests are older; preserve FIFO order */
                if (fill_line >= 0 && ln->fq_n < ln->fill_queue_capacity)
                    fq_push(ln, fill_line);
                issue_fills(ln, access_now);
            } else if (fill_line < 0) {
                /* window underflow: dropped */
            } else if (set_hit(ln->l1
                               + (fill_line & ln->l1_set_mask)
                               * ln->l1_assoc,
                               ln->l1_assoc, fill_line)) {
                /* already resident: dropped */
            } else {
                idx = mq_find(ln, fill_line);
                if (idx >= 0) {
                    if (ln->mq_type[idx] == RT_NOFILL) {
                        ln->mq_type[idx] = RT_RANDOM_FILL;
                        ln->rf_issued++;
                    }
                } else if (ln->mq_n >= ln->fill_cap) {
                    fq_push(ln, fill_line);
                    ln->fills_blocked = 1;
                } else {
                    ln->rf_issued++;
                    mq_put(ln, fill_line,
                           l2_access(ln, fill_line, access_now),
                           RT_RANDOM_FILL);
                }
            }
        } else {
            complete_at = l2_access(ln, line, access_now);
            mq_put(ln, line, complete_at, RT_NORMAL);
            ln->fills_blocked = 0;
            if (ln->fq_n > 0)
                issue_fills(ln, access_now);
        }
    charge:
        ch_put(ln->charged, line, complete_at);
        now += ln->hit_cost + stall;
        remaining = complete_at - now - ln->credit;
        if (remaining > 0)
            now += (remaining + ln->mlp - 1) / ln->mlp;
        if (ln->charged->count >= PRUNE_AT)
            ch_prune(ln->charged, ln->scratch, now);
    }

    /* end-of-run settle: issued fills and their L2/DRAM traffic count
     * toward this run's totals */
    while (ln->fq_n > 0 || ln->mq_n > 0) {
        int progressed = 0;
        if (ln->mq_n > 0) {
            int64_t horizon = ln->nc > 0 ? ln->nc : 0;
            progressed = drain(ln, horizon) > 0;
        }
        if (ln->fq_n > 0 && ln->mq_n < ln->mq_capacity) {
            int64_t before = ln->fq_n;
            issue_fills(ln, 0);
            progressed = progressed || ln->fq_n != before;
        }
        if (!progressed)
            break;                      /* defensive backstop */
    }

    out[0] = now;
    out[1] = ln->hits;
    out[2] = ln->demand_misses;
    out[3] = ln->l2_accesses;
    out[4] = ln->l2_misses;
    out[5] = ln->memory_lines;
    out[6] = ln->rf_issued;
    return 0;
}

/* Load one carried-in cache image (ways, then per-way lock bits) or
 * the default; returns the lock array, or NULL when no bit is set. */
static int64_t *load_image(int64_t *ways, int64_t *locks, int64_t n,
                           const int64_t *image, const int64_t *fallback)
{
    int64_t i, any = 0;
    if (image == NULL) {
        if (fallback)
            memcpy(ways, fallback, n * sizeof(int64_t));
        else
            memset(ways, 0xff, n * sizeof(int64_t));
        return NULL;
    }
    memcpy(ways, image, n * sizeof(int64_t));
    memcpy(locks, image + n, n * sizeof(int64_t));
    for (i = 0; i < n; i++)
        any |= locks[i];
    return any ? locks : NULL;
}

/* Entry point: run every lane of a batch group over the shared trace.
 * lane_info holds one LANE_INFO row per lane; its offsets point into
 * state, which packs the carried-in images: an L1 or L2 image is the
 * set-major ways (MRU first, -1 = empty way) followed by as many lock
 * bits, the DRAM state is dram_banks open rows (-1 = none) followed by
 * dram_banks bank-free cycles, and bypass ranges are [lo, hi) pairs.
 * Lanes without an L1 image start empty, without an L2 image from
 * l2_template (the group's warmed L2), without DRAM state idle.
 * offsets holds one row of n_records pregenerated fill offsets per
 * random-fill lane; out receives 7 values
 * per lane: cycles, hits, demand_misses, l2_accesses, l2_misses,
 * memory_lines, rf_issued.  Returns 0 on success, -1 on allocation
 * failure. */
int run_lanes(int64_t n_records, const int64_t *lines,
              const int64_t *steps,
              int64_t n_lanes, const int64_t *lane_info,
              const int64_t *offsets, const int64_t *l2_template,
              const int64_t *state,
              int64_t l1_num_sets, int64_t l1_assoc,
              int64_t l2_num_sets, int64_t l2_assoc,
              int64_t l2_hit_latency, int64_t mq_capacity,
              int64_t fill_reserve, int64_t fill_queue_capacity,
              int64_t hit_cost, int64_t mlp, int64_t credit,
              int64_t dram_lines_per_row, int64_t dram_banks,
              int64_t dram_hit_latency, int64_t dram_miss_latency,
              int64_t dram_hit_busy, int64_t dram_miss_busy,
              int64_t *out)
{
    int64_t lane;
    int rc = 0;
    Lane ln;
    int64_t fq_cap = fill_queue_capacity + 1;
    int64_t l1_n = l1_num_sets * l1_assoc, l2_n = l2_num_sets * l2_assoc;
    int64_t *l1_lock, *l2_lock;
    if (mq_capacity > 64)
        return -2;                      /* drain scratch bound */
    memset(&ln, 0, sizeof(ln));
    ln.lines = lines;
    ln.n_records = n_records;
    ln.l1_set_mask = l1_num_sets - 1;
    ln.l1_assoc = l1_assoc;
    ln.l2_set_mask = l2_num_sets - 1;
    ln.l2_assoc = l2_assoc;
    ln.l2_hit_latency = l2_hit_latency;
    ln.mq_capacity = mq_capacity;
    ln.fill_cap = mq_capacity - fill_reserve;
    ln.fill_queue_capacity = fill_queue_capacity;
    ln.hit_cost = hit_cost;
    ln.mlp = mlp;
    ln.credit = credit;
    ln.dram_lines_per_row = dram_lines_per_row;
    ln.dram_banks = dram_banks;
    ln.dram_hit_latency = dram_hit_latency;
    ln.dram_miss_latency = dram_miss_latency;
    ln.dram_hit_busy = dram_hit_busy;
    ln.dram_miss_busy = dram_miss_busy;
    ln.fq_cap = fq_cap;

    ln.l1 = malloc(l1_n * sizeof(int64_t));
    ln.l2 = malloc(l2_n * sizeof(int64_t));
    l1_lock = malloc(l1_n * sizeof(int64_t));
    l2_lock = malloc(l2_n * sizeof(int64_t));
    ln.mq_line = malloc(mq_capacity * sizeof(int64_t));
    ln.mq_complete = malloc(mq_capacity * sizeof(int64_t));
    ln.mq_type = malloc(mq_capacity * sizeof(int64_t));
    ln.fq = malloc(fq_cap * sizeof(int64_t));
    ln.open_row = malloc(dram_banks * sizeof(int64_t));
    ln.bank_free = malloc(dram_banks * sizeof(int64_t));
    ln.charged = malloc(sizeof(ChargeMap));
    ln.scratch = malloc(sizeof(ChargeMap));
    if (!ln.l1 || !ln.l2 || !l1_lock || !l2_lock || !ln.mq_line
        || !ln.mq_complete || !ln.mq_type || !ln.fq || !ln.open_row
        || !ln.bank_free || !ln.charged || !ln.scratch) {
        rc = -1;
        goto done;
    }

    for (lane = 0; lane < n_lanes; lane++) {
        const int64_t *info = lane_info + lane * LANE_INFO;
        ln.l1_lock = load_image(ln.l1, l1_lock, l1_n,
                                info[3] >= 0 ? state + info[3] : NULL,
                                NULL);
        ln.l2_lock = load_image(ln.l2, l2_lock, l2_n,
                                info[4] >= 0 ? state + info[4] : NULL,
                                l2_template);
        if (info[5] >= 0) {
            memcpy(ln.open_row, state + info[5],
                   dram_banks * sizeof(int64_t));
            memcpy(ln.bank_free, state + info[5] + dram_banks,
                   dram_banks * sizeof(int64_t));
        } else {
            memset(ln.open_row, 0xff, dram_banks * sizeof(int64_t));
            memset(ln.bank_free, 0, dram_banks * sizeof(int64_t));
        }
        ln.bypass = info[6] >= 0 ? state + info[6] : NULL;
        ln.n_bypass = info[6] >= 0 ? info[7] : 0;
        ch_clear(ln.charged);
        ln.mq_n = 0;
        ln.fq_head = 0;
        ln.fq_n = 0;
        ln.nc = NEVER;
        ln.fills_blocked = 0;
        ln.hits = 0;
        ln.demand_misses = 0;
        ln.l2_accesses = 0;
        ln.l2_misses = 0;
        ln.memory_lines = 0;
        ln.rf_issued = 0;
        rc = run_one_lane(&ln, steps, info[1], info[0],
                          info[2] >= 0 ? offsets + info[2] * n_records
                                       : NULL,
                          out + lane * 7);
        if (rc != 0)
            goto done;
    }

done:
    free(ln.l1);
    free(ln.l2);
    free(l1_lock);
    free(l2_lock);
    free(ln.mq_line);
    free(ln.mq_complete);
    free(ln.mq_type);
    free(ln.fq);
    free(ln.open_row);
    free(ln.bank_free);
    free(ln.charged);
    free(ln.scratch);
    return rc;
}
