/* The native traversal kernel: PPTA + DYNSUM inner loops over the CSR
 * image's raw int32 arrays.
 *
 * This file is a statement-for-statement C mirror of the two Python
 * array-impl loops — `repro.analysis.ppta._run_ppta_array` and
 * `repro.analysis.dynsum.DynSum._explore_array` — over the exact same
 * memory layout (`repro.pag.csr.CsrImage`): per-node CSR offset/value
 * groups, one flags byte per node (plus the zero sentinel at index n),
 * packed traversal states `t = index * 4 + state`, and cross-edge op
 * lists with the recursive-site bit folded into the op code.  Budget
 * charging, depth cutoffs, LIFO/FIFO discipline, visited-set probe
 * order, cache hit/miss accounting and abort points are all replicated
 * bit-exactly, so per-query answers AND step counts match
 * `run_ppta_reference`.
 *
 * Deliberately no Python.h: the binding layer (`repro.native.binding`)
 * loads this as a plain shared object via ctypes.PyDLL (the GIL stays
 * held for the duration of every call, so the per-process tables below
 * never race) and keeps the backing buffers alive for the lifetime of
 * each RkGraph.
 *
 * Ownership:
 *   RkGraph    — borrows the 26 CSR arrays + flags and the three token
 *                tables (field id, family and sort rank per image token)
 *                from Python; every field-stack value is an image token
 *                id.  Owns a copy of the node ranks (plus a sentinel at
 *                n) and the two hash-consed stack tables (field stacks +
 *                context stacks, shared by every session over the
 *                image).  An edit's patched image
 *                (repro.pag.csr.patch_csr) keeps every surviving node's
 *                index and every token's id, so rk_graph_rebind points
 *                the same graph at it: the stack tables and every
 *                session over the graph stay valid.
 *   RkSession  — one per (graph, SummaryCache) pair; owns the summary
 *                table mirroring the Python cache's `_entries`.  Records
 *                are append-only; a replaced or deleted key leaves a dead
 *                record behind, and the binding compacts the session
 *                (rk_session_compact) once dead records outnumber live
 *                ones.  rk_frame_hold fills it straight from a
 *                prefetched frame's rows, read at the width they
 *                arrive in (2, 4 or 8 bytes: a packed frame's buffer
 *                as decoded, or int64), with no Python summary built.
 *   Rk*Result  — malloc'd per call, freed by the matching rk_*_free.
 *
 * Registered in repro.devtools.registry.HOT_FUNCTIONS (impl="native"):
 * rk_ppta and rk_dynsum are the drivers repro-perf measures.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RK_ABI_VERSION 5

/* RSM states and token families (repro.cfl.rsm). */
#define RK_S1 1
#define RK_S2 2
#define RK_FAM_LOAD 0

/* Cross-op codes (repro.pag.csr). */
#define RK_OP_PUSH 0
#define RK_OP_PUSH_REC 1
#define RK_OP_POP 2
#define RK_OP_POP_REC 3
#define RK_OP_CLEAR 4

/* Flags byte bits. */
#define RK_FLAG_GLOBAL_IN 1
#define RK_FLAG_GLOBAL_OUT 2
#define RK_FLAG_LOCAL 4

/* Statuses shared by both result structs. */
#define RK_OK 0
#define RK_ABORT 1 /* budget or depth cutoff — mirrors BudgetExceededError */
#define RK_ERR_OOM (-2)

/* rk_graph_new / rk_graph_rebind error codes (the binding maps them to
 * reason strings). */
#define RK_GERR_OOM 1
#define RK_GERR_OFFSETS 2
#define RK_GERR_RANGE 3

/* The 26 CSR arrays, in repro.pag.csr._ARRAY_NAMES order. */
enum {
    A_NEW_OFF, A_NEW_VAL,
    A_AS_OFF, A_AS_VAL,
    A_LI_OFF, A_LI_TOK, A_LI_VAL,
    A_AT_OFF, A_AT_VAL,
    A_LF_OFF, A_LF_FID, A_LF_VAL,
    A_SI_OFF, A_SI_FID, A_SI_VAL,
    A_SF_OFF, A_SF_TOK, A_SF_VAL,
    A_CB_OFF, A_CB_OP, A_CB_SITE, A_CB_TGT,
    A_CF_OFF, A_CF_OP, A_CF_SITE, A_CF_TGT,
    A_COUNT
};

/* ------------------------------------------------------------------ */
/* growable int32 buffer                                              */
/* ------------------------------------------------------------------ */
typedef struct {
    int32_t *data;
    int32_t len;
    int32_t cap;
    int oom;
} IntBuf;

static void buf_init(IntBuf *b) {
    b->data = NULL;
    b->len = 0;
    b->cap = 0;
    b->oom = 0;
}

static void buf_free(IntBuf *b) {
    free(b->data);
    b->data = NULL;
    b->len = b->cap = 0;
}

static int buf_grow(IntBuf *b, int32_t need) {
    int32_t cap = b->cap ? b->cap : 64;
    int32_t *data;
    while (cap < need) {
        if (cap > INT32_MAX / 2) {
            b->oom = 1;
            return -1;
        }
        cap *= 2;
    }
    data = (int32_t *)realloc(b->data, (size_t)cap * sizeof(int32_t));
    if (!data) {
        b->oom = 1;
        return -1;
    }
    b->data = data;
    b->cap = cap;
    return 0;
}

static int buf_push(IntBuf *b, int32_t v) {
    if (b->len == b->cap && buf_grow(b, b->len + 1) < 0)
        return -1;
    b->data[b->len++] = v;
    return 0;
}

static int buf_push2(IntBuf *b, int32_t a, int32_t c) {
    if (b->len + 2 > b->cap && buf_grow(b, b->len + 2) < 0)
        return -1;
    b->data[b->len++] = a;
    b->data[b->len++] = c;
    return 0;
}

static int buf_push3(IntBuf *b, int32_t a, int32_t c, int32_t d) {
    if (b->len + 3 > b->cap && buf_grow(b, b->len + 3) < 0)
        return -1;
    b->data[b->len++] = a;
    b->data[b->len++] = c;
    b->data[b->len++] = d;
    return 0;
}

/* growable int64 buffer (summary step costs) */
typedef struct {
    int64_t *data;
    int32_t len;
    int32_t cap;
} I64Buf;

static int i64_push(I64Buf *b, int64_t v) {
    if (b->len == b->cap) {
        int32_t cap = b->cap ? b->cap * 2 : 64;
        int64_t *data = (int64_t *)realloc(b->data, (size_t)cap * sizeof(int64_t));
        if (!data)
            return -1;
        b->data = data;
        b->cap = cap;
    }
    b->data[b->len++] = v;
    return 0;
}

/* ------------------------------------------------------------------ */
/* open-addressing set over 96-bit keys (k1: 64 bits, k2: 32 bits)    */
/*                                                                    */
/* Used for every visited set and for the pair dedup:                 */
/*   PPTA visited:   k1 = f << 32 | t,  k2 = 0                        */
/*   DYNSUM seen:    k1 = f << 32 | t,  k2 = ctx                      */
/*   pairs:          k1 = obj,          k2 = ctx                      */
/* The packing is an exact encoding (f, t, ctx are all non-negative   */
/* int32), mirroring the Python impls' injective int-key packings.    */
/* ------------------------------------------------------------------ */
#define SET_EMPTY UINT64_MAX /* k1 is always < 2^63, never all-ones */

typedef struct {
    uint64_t *k1;
    uint32_t *k2;
    uint32_t cap;  /* power of two */
    uint32_t used;
} KSet;

static uint64_t mix64(uint64_t x) {
    /* splitmix64 finalizer */
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

static int kset_init(KSet *s, uint32_t cap) {
    uint32_t i;
    s->k1 = (uint64_t *)malloc((size_t)cap * sizeof(uint64_t));
    s->k2 = (uint32_t *)malloc((size_t)cap * sizeof(uint32_t));
    if (!s->k1 || !s->k2) {
        free(s->k1);
        free(s->k2);
        s->k1 = NULL;
        s->k2 = NULL;
        return -1;
    }
    for (i = 0; i < cap; i++)
        s->k1[i] = SET_EMPTY;
    s->cap = cap;
    s->used = 0;
    return 0;
}

static void kset_free(KSet *s) {
    free(s->k1);
    free(s->k2);
    s->k1 = NULL;
    s->k2 = NULL;
}

static int kset_grow(KSet *s) {
    KSet bigger;
    uint32_t i;
    if (kset_init(&bigger, s->cap * 2) < 0)
        return -1;
    for (i = 0; i < s->cap; i++) {
        if (s->k1[i] != SET_EMPTY) {
            uint64_t k1 = s->k1[i];
            uint32_t k2 = s->k2[i];
            uint32_t j = (uint32_t)mix64(k1 ^ ((uint64_t)k2 << 1)) & (bigger.cap - 1);
            while (bigger.k1[j] != SET_EMPTY)
                j = (j + 1) & (bigger.cap - 1);
            bigger.k1[j] = k1;
            bigger.k2[j] = k2;
        }
    }
    bigger.used = s->used;
    kset_free(s);
    *s = bigger;
    return 0;
}

/* Add-and-compare in one probe: returns 1 if inserted (was absent),
 * 0 if already present, -1 on OOM. */
static int kset_add(KSet *s, uint64_t k1, uint32_t k2) {
    uint32_t j;
    if (s->used * 4 >= s->cap * 3 && kset_grow(s) < 0)
        return -1;
    j = (uint32_t)mix64(k1 ^ ((uint64_t)k2 << 1)) & (s->cap - 1);
    while (s->k1[j] != SET_EMPTY) {
        if (s->k1[j] == k1 && s->k2[j] == k2)
            return 0;
        j = (j + 1) & (s->cap - 1);
    }
    s->k1[j] = k1;
    s->k2[j] = k2;
    s->used++;
    return 1;
}

/* ------------------------------------------------------------------ */
/* open-addressing map: 64-bit key -> int32 value                     */
/* (hash-cons tables and the summary index)                           */
/* ------------------------------------------------------------------ */
typedef struct {
    uint64_t *keys;
    int32_t *vals;
    uint32_t cap;
    uint32_t used;
} KMap;

static int kmap_init(KMap *m, uint32_t cap) {
    uint32_t i;
    m->keys = (uint64_t *)malloc((size_t)cap * sizeof(uint64_t));
    m->vals = (int32_t *)malloc((size_t)cap * sizeof(int32_t));
    if (!m->keys || !m->vals) {
        free(m->keys);
        free(m->vals);
        m->keys = NULL;
        m->vals = NULL;
        return -1;
    }
    for (i = 0; i < cap; i++)
        m->keys[i] = SET_EMPTY;
    m->cap = cap;
    m->used = 0;
    return 0;
}

static void kmap_free(KMap *m) {
    free(m->keys);
    free(m->vals);
    m->keys = NULL;
    m->vals = NULL;
}

static int kmap_grow(KMap *m) {
    KMap bigger;
    uint32_t i;
    if (kmap_init(&bigger, m->cap * 2) < 0)
        return -1;
    for (i = 0; i < m->cap; i++) {
        if (m->keys[i] != SET_EMPTY) {
            uint32_t j = (uint32_t)mix64(m->keys[i]) & (bigger.cap - 1);
            while (bigger.keys[j] != SET_EMPTY)
                j = (j + 1) & (bigger.cap - 1);
            bigger.keys[j] = m->keys[i];
            bigger.vals[j] = m->vals[i];
        }
    }
    bigger.used = m->used;
    kmap_free(m);
    *m = bigger;
    return 0;
}

/* -1 when absent */
static int32_t kmap_get(const KMap *m, uint64_t key) {
    uint32_t j = (uint32_t)mix64(key) & (m->cap - 1);
    while (m->keys[j] != SET_EMPTY) {
        if (m->keys[j] == key)
            return m->vals[j];
        j = (j + 1) & (m->cap - 1);
    }
    return -1;
}

static int kmap_put(KMap *m, uint64_t key, int32_t val) {
    uint32_t j;
    if (m->used * 4 >= m->cap * 3 && kmap_grow(m) < 0)
        return -1;
    j = (uint32_t)mix64(key) & (m->cap - 1);
    while (m->keys[j] != SET_EMPTY) {
        if (m->keys[j] == key) {
            m->vals[j] = val;
            return 0;
        }
        j = (j + 1) & (m->cap - 1);
    }
    m->keys[j] = key;
    m->vals[j] = val;
    m->used++;
    return 0;
}

/* ------------------------------------------------------------------ */
/* hash-consed persistent stacks (field stacks and context stacks)    */
/*                                                                    */
/* The C twin of repro.cfl.stacks.Stack: id 0 is the empty stack,     */
/* push(parent, value) is interned on (parent, value), so equal       */
/* stacks have equal ids — the same canonicity the Python visited     */
/* sets key on via Stack._uid.  The binding rebuilds Python stacks    */
/* from ids via the value/parent accessors (memoised per id).         */
/* ------------------------------------------------------------------ */
typedef struct {
    IntBuf value;  /* entry's top value (token id / call site) */
    IntBuf parent; /* parent stack id */
    IntBuf depth;  /* entry count */
    KMap cons;     /* (parent, value) -> id */
} StackTable;

static int stacks_init(StackTable *t) {
    buf_init(&t->value);
    buf_init(&t->parent);
    buf_init(&t->depth);
    if (kmap_init(&t->cons, 256) < 0)
        return -1;
    /* id 0: the empty stack */
    if (buf_push(&t->value, -1) < 0 || buf_push(&t->parent, -1) < 0 ||
        buf_push(&t->depth, 0) < 0)
        return -1;
    return 0;
}

static void stacks_free(StackTable *t) {
    buf_free(&t->value);
    buf_free(&t->parent);
    buf_free(&t->depth);
    kmap_free(&t->cons);
}

/* canonical push; -1 on OOM */
static int32_t stacks_push(StackTable *t, int32_t parent, int32_t value) {
    uint64_t key = ((uint64_t)(uint32_t)parent << 32) | (uint32_t)value;
    int32_t id = kmap_get(&t->cons, key);
    if (id >= 0)
        return id;
    id = t->value.len;
    if (buf_push(&t->value, value) < 0 || buf_push(&t->parent, parent) < 0 ||
        buf_push(&t->depth, t->depth.data[parent] + 1) < 0)
        return -1;
    if (kmap_put(&t->cons, key, id) < 0)
        return -1;
    return id;
}

/* ------------------------------------------------------------------ */
/* the graph handle                                                   */
/* ------------------------------------------------------------------ */
typedef struct {
    int32_t n;          /* node count (sentinel index is n) */
    const int32_t *a[A_COUNT];
    const uint8_t *flags; /* n + 1 bytes */
    /* token tables, indexed by image token id — borrowed */
    const int32_t *tok_fid;
    const int32_t *tok_fam;
    const int32_t *tok_rank;
    /* node order ranks (by Node.sort_key) — owned copy */
    int32_t *node_rank;
    StackTable fstacks;
    StackTable cstacks;
    int oom; /* poisoned by a failed stack push; binding retires the handle */
} RkGraph;

static int check_offsets(const int32_t *off, int32_t n, int32_t total) {
    int32_t i;
    if (off[0] != 0 || off[n] != total)
        return -1;
    for (i = 0; i < n; i++)
        if (off[i] > off[i + 1])
            return -1;
    return 0;
}

static int check_range(const int32_t *vals, int32_t count, int32_t lo, int32_t hi) {
    int32_t i;
    for (i = 0; i < count; i++)
        if (vals[i] < lo || vals[i] >= hi)
            return -1;
    return 0;
}

int rk_abi_version(void) {
    return RK_ABI_VERSION;
}

/* The validation rk_graph_new and rk_graph_rebind share: offsets are
 * well-formed CSR over n nodes, node-valued arrays index [0, n), token
 * ids [0, n_tokens) and op codes are known.  0 or an RK_GERR_* code. */
static int check_image(int32_t n, const int32_t **arrays, const int32_t *counts,
                       int32_t n_tokens) {
    static const int off_of_val[A_COUNT] = {
        /* value-array index -> its offsets-array index; offsets map to
         * themselves. */
        A_NEW_OFF, A_NEW_OFF,
        A_AS_OFF, A_AS_OFF,
        A_LI_OFF, A_LI_OFF, A_LI_OFF,
        A_AT_OFF, A_AT_OFF,
        A_LF_OFF, A_LF_OFF, A_LF_OFF,
        A_SI_OFF, A_SI_OFF, A_SI_OFF,
        A_SF_OFF, A_SF_OFF, A_SF_OFF,
        A_CB_OFF, A_CB_OFF, A_CB_OFF, A_CB_OFF,
        A_CF_OFF, A_CF_OFF, A_CF_OFF, A_CF_OFF,
    };
    static const int is_off[A_COUNT] = {
        1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0,
        1, 0, 0, 0, 1, 0, 0, 0,
    };
    /* node-index valued arrays (0 <= v < n) */
    static const int is_node[A_COUNT] = {
        0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1,
        0, 0, 0, 1, 0, 0, 0, 1,
    };
    int i;

    for (i = 0; i < A_COUNT; i++) {
        if (is_off[i]) {
            if (counts[i] != n + 1)
                return RK_GERR_OFFSETS;
        } else {
            /* every value array's count must equal its group total */
            if (check_offsets(arrays[off_of_val[i]], n, counts[i]) < 0)
                return RK_GERR_OFFSETS;
        }
    }
    for (i = 0; i < A_COUNT; i++)
        if (is_node[i] && check_range(arrays[i], counts[i], 0, n) < 0)
            return RK_GERR_RANGE;
    if (check_range(arrays[A_LI_TOK], counts[A_LI_TOK], 0, n_tokens) < 0 ||
        check_range(arrays[A_SF_TOK], counts[A_SF_TOK], 0, n_tokens) < 0 ||
        check_range(arrays[A_CB_OP], counts[A_CB_OP], 0, RK_OP_CLEAR + 1) < 0 ||
        check_range(arrays[A_CF_OP], counts[A_CF_OP], 0, RK_OP_CLEAR + 1) < 0)
        return RK_GERR_RANGE;
    return 0;
}

/* arrays: the 26 CSR arrays in _ARRAY_NAMES order; counts: their
 * element counts; tok_*: n_tokens entries each.  All pointers but
 * node_rank (copied) are borrowed — the binding keeps the owning Python
 * objects alive for the handle's lifetime. */
RkGraph *rk_graph_new(int32_t n, const int32_t **arrays, const int32_t *counts,
                      const uint8_t *flags, int32_t n_tokens,
                      const int32_t *tok_fid, const int32_t *tok_fam,
                      const int32_t *tok_rank, const int32_t *node_rank,
                      int32_t *err) {
    RkGraph *g;
    int i;

    *err = check_image(n, arrays, counts, n_tokens);
    if (*err)
        return NULL;
    g = (RkGraph *)calloc(1, sizeof(RkGraph));
    if (!g) {
        *err = RK_GERR_OOM;
        return NULL;
    }
    g->n = n;
    for (i = 0; i < A_COUNT; i++)
        g->a[i] = arrays[i];
    g->flags = flags;
    g->tok_fid = tok_fid;
    g->tok_fam = tok_fam;
    g->tok_rank = tok_rank;
    g->node_rank = (int32_t *)malloc(((size_t)n + 1) * sizeof(int32_t));
    if (!g->node_rank)
        goto oom;
    memcpy(g->node_rank, node_rank, (size_t)n * sizeof(int32_t));
    g->node_rank[n] = n; /* sentinel — never compared, keep it defined */
    if (stacks_init(&g->fstacks) < 0 || stacks_init(&g->cstacks) < 0)
        goto oom;
    return g;
oom:
    *err = RK_GERR_OOM;
    free(g->node_rank);
    stacks_free(&g->fstacks);
    stacks_free(&g->cstacks);
    free(g);
    return NULL;
}

/* Point g at a patched image of the one it reads (same arguments as
 * rk_graph_new; the old buffers must stay alive until this returns).
 * A patch keeps every surviving node's index and every token's id and
 * appends new ones, so n may not shrink: the stack tables and every
 * session over g — whose records name nodes and tokens by index — stay
 * valid.  The borrowed pointers move to the new arrays and node_rank is
 * replaced.  0, or an RK_GERR_* code with g untouched. */
int32_t rk_graph_rebind(RkGraph *g, int32_t n, const int32_t **arrays,
                        const int32_t *counts, const uint8_t *flags,
                        int32_t n_tokens, const int32_t *tok_fid,
                        const int32_t *tok_fam, const int32_t *tok_rank,
                        const int32_t *node_rank) {
    int32_t *ranks;
    int err, i;

    if (n < g->n)
        return RK_GERR_RANGE;
    err = check_image(n, arrays, counts, n_tokens);
    if (err)
        return err;
    ranks = (int32_t *)realloc(g->node_rank, ((size_t)n + 1) * sizeof(int32_t));
    if (!ranks)
        return RK_GERR_OOM;
    g->node_rank = ranks;
    memcpy(ranks, node_rank, (size_t)n * sizeof(int32_t));
    ranks[n] = n;
    g->n = n;
    for (i = 0; i < A_COUNT; i++)
        g->a[i] = arrays[i];
    g->flags = flags;
    g->tok_fid = tok_fid;
    g->tok_fam = tok_fam;
    g->tok_rank = tok_rank;
    return 0;
}

void rk_graph_free(RkGraph *g) {
    if (!g)
        return;
    free(g->node_rank);
    stacks_free(&g->fstacks);
    stacks_free(&g->cstacks);
    free(g);
}

int32_t rk_fstack_push(RkGraph *g, int32_t parent, int32_t value) {
    int32_t id = stacks_push(&g->fstacks, parent, value);
    if (id < 0)
        g->oom = 1;
    return id;
}

int32_t rk_cstack_push(RkGraph *g, int32_t parent, int32_t value) {
    int32_t id = stacks_push(&g->cstacks, parent, value);
    if (id < 0)
        g->oom = 1;
    return id;
}

/* Accessors the binding uses to rebuild Python stacks from ids. */
int32_t rk_fstack_value(const RkGraph *g, int32_t id) { return g->fstacks.value.data[id]; }
int32_t rk_fstack_parent(const RkGraph *g, int32_t id) { return g->fstacks.parent.data[id]; }
int32_t rk_cstack_value(const RkGraph *g, int32_t id) { return g->cstacks.value.data[id]; }
int32_t rk_cstack_parent(const RkGraph *g, int32_t id) { return g->cstacks.parent.data[id]; }
int32_t rk_graph_oom(const RkGraph *g) { return g->oom; }

/* ------------------------------------------------------------------ */
/* the session: a summary table mirroring one SummaryCache            */
/* ------------------------------------------------------------------ */
typedef struct {
    RkGraph *g;
    KMap index;      /* (f << 32 | t) -> record number, -1 once deleted */
    int32_t live;    /* keys the index maps to a record */
    IntBuf rec_t;    /* per record: packed key state */
    IntBuf rec_f;    /* per record: key field-stack id */
    I64Buf rec_steps;
    IntBuf rec_obj_off; /* n_records + 1 offsets into obj_pool */
    IntBuf rec_b_off;   /* n_records + 1 offsets into the boundary pools */
    IntBuf obj_pool;    /* object node indices, per-record emission order */
    IntBuf b_t_pool;    /* boundary packed states, per-record stored order */
    IntBuf b_f_pool;    /* boundary field-stack ids */
    int oom;
} RkSession;

void rk_session_free(RkSession *s);

RkSession *rk_session_new(RkGraph *g) {
    RkSession *s = (RkSession *)calloc(1, sizeof(RkSession));
    if (!s)
        return NULL;
    s->g = g;
    if (kmap_init(&s->index, 1024) < 0) {
        free(s);
        return NULL;
    }
    buf_init(&s->rec_t);
    buf_init(&s->rec_f);
    buf_init(&s->rec_obj_off);
    buf_init(&s->rec_b_off);
    buf_init(&s->obj_pool);
    buf_init(&s->b_t_pool);
    buf_init(&s->b_f_pool);
    if (buf_push(&s->rec_obj_off, 0) < 0 || buf_push(&s->rec_b_off, 0) < 0) {
        rk_session_free(s);
        return NULL;
    }
    return s;
}

void rk_session_free(RkSession *s) {
    if (!s)
        return;
    kmap_free(&s->index);
    buf_free(&s->rec_t);
    buf_free(&s->rec_f);
    free(s->rec_steps.data);
    buf_free(&s->rec_obj_off);
    buf_free(&s->rec_b_off);
    buf_free(&s->obj_pool);
    buf_free(&s->b_t_pool);
    buf_free(&s->b_f_pool);
    free(s);
}

int32_t rk_session_count(const RkSession *s) { return s->rec_t.len; }
int32_t rk_session_live(const RkSession *s) { return s->live; }
int32_t rk_session_oom(const RkSession *s) { return s->oom; }

static uint64_t summary_key(int32_t t, int32_t f) {
    return ((uint64_t)(uint32_t)f << 32) | (uint32_t)t;
}

/* Append one summary record and point its key at it (a key that
 * already had a live record leaves that one dead); returns the record
 * number or -1 on OOM. */
static int32_t session_commit(RkSession *s, int32_t t, int32_t f, int64_t steps,
                              const int32_t *objs, int32_t n_obj,
                              const int32_t *b_t, const int32_t *b_f,
                              int32_t n_b) {
    int32_t rec = s->rec_t.len;
    int was_live = kmap_get(&s->index, summary_key(t, f)) >= 0;
    int32_t i;
    if (buf_push(&s->rec_t, t) < 0 || buf_push(&s->rec_f, f) < 0 ||
        i64_push(&s->rec_steps, steps) < 0)
        goto oom;
    for (i = 0; i < n_obj; i++)
        if (buf_push(&s->obj_pool, objs[i]) < 0)
            goto oom;
    for (i = 0; i < n_b; i++)
        if (buf_push(&s->b_t_pool, b_t[i]) < 0 || buf_push(&s->b_f_pool, b_f[i]) < 0)
            goto oom;
    if (buf_push(&s->rec_obj_off, s->obj_pool.len) < 0 ||
        buf_push(&s->rec_b_off, s->b_t_pool.len) < 0)
        goto oom;
    if (kmap_put(&s->index, summary_key(t, f), rec) < 0)
        goto oom;
    if (!was_live)
        s->live++;
    return rec;
oom:
    s->oom = 1;
    return -1;
}

/* Import n Python cache entries in one call, over flat arrays: entry i
 * is the key (t[i], f[i]) with objects objs[obj_off[i] .. obj_off[i+1])
 * and boundaries (b_t, b_f)[b_off[i] .. b_off[i+1]), already in stored
 * order (the Python side sorted them at creation).  A key the session
 * already holds is replaced.  0 on success, -1 on OOM (the session is
 * then poisoned and the binding retires it). */
int32_t rk_summary_put_many(RkSession *s, int32_t n, const int32_t *t,
                            const int32_t *f, const int64_t *steps,
                            const int32_t *obj_off, const int32_t *objs,
                            const int32_t *b_off, const int32_t *b_t,
                            const int32_t *b_f) {
    int32_t i;
    for (i = 0; i < n; i++) {
        int32_t o = obj_off[i], n_obj = obj_off[i + 1] - o;
        int32_t b = b_off[i], n_b = b_off[i + 1] - b;
        /* no offset arithmetic on a NULL pool (an empty ctypes array) */
        if (session_commit(s, t[i], f[i], steps[i], n_obj ? objs + o : NULL,
                           n_obj, n_b ? b_t + b : NULL, n_b ? b_f + b : NULL,
                           n_b) < 0)
            return -1;
    }
    return 0;
}

/* Drop the dead records: copy the live ones — those the index still
 * points at — in record order into fresh pools behind a fresh index, so
 * deleted keys leave no tombstones either.  No Python round trip: the
 * kernel already holds every live summary.  0, or -1 on OOM (s is then
 * untouched; the binding retires it). */
int32_t rk_session_compact(RkSession *s) {
    RkSession *c = rk_session_new(s->g);
    RkSession old;
    int32_t r;
    if (!c)
        return -1;
    for (r = 0; r < s->rec_t.len; r++) {
        int32_t t = s->rec_t.data[r], f = s->rec_f.data[r];
        int32_t o = s->rec_obj_off.data[r], n_obj = s->rec_obj_off.data[r + 1] - o;
        int32_t b = s->rec_b_off.data[r], n_b = s->rec_b_off.data[r + 1] - b;
        if (kmap_get(&s->index, summary_key(t, f)) != r)
            continue; /* replaced or deleted */
        /* no offset arithmetic on a NULL pool (nothing pooled yet) */
        if (session_commit(c, t, f, s->rec_steps.data[r],
                           n_obj ? s->obj_pool.data + o : NULL, n_obj,
                           n_b ? s->b_t_pool.data + b : NULL,
                           n_b ? s->b_f_pool.data + b : NULL, n_b) < 0) {
            rk_session_free(c);
            return -1;
        }
    }
    old = *s;
    *s = *c;
    *c = old;
    rk_session_free(c); /* frees the old pools */
    return 0;
}

/* Delete n keys: each live one is re-pointed at -1, which every probe
 * reads as a miss, and its record becomes dead.  Keys the session does
 * not hold are ignored.  Returns the number deleted, or -1 on OOM. */
int32_t rk_summary_del(RkSession *s, int32_t n, const int32_t *t,
                       const int32_t *f) {
    int32_t i, deleted = 0;
    for (i = 0; i < n; i++) {
        uint64_t key = summary_key(t[i], f[i]);
        if (kmap_get(&s->index, key) < 0)
            continue;
        if (kmap_put(&s->index, key, -1) < 0) {
            s->oom = 1;
            return -1;
        }
        s->live--;
        deleted++;
    }
    return deleted;
}

/* ------------------------------------------------------------------ */
/* held frames: a prefetched frame's rows straight into a session     */
/*                                                                    */
/* The rows are untrusted (repro.api.protocol.SummaryFrame, one run   */
/* per entry: node, stack, state, steps, n_objects, object...,        */
/* n_boundaries, (node, stack, state)...), signed integers of 2, 4 or */
/* 8 bytes each in host order, read through frame_row; a packed       */
/* frame's buffer arrives at its own width.  The binding resolved the */
/* node and stack tables and maps each table row: node_idx to an      */
/* image index (RK_NODE_UNRESOLVED: the entity is not in the PAG;     */
/* RK_NODE_FOREIGN: in the PAG, not in the image), stack_id to a      */
/* field-stack id (-1: a token outside the image).                    */
/* ------------------------------------------------------------------ */
#define RK_NODE_UNRESOLVED (-1)
#define RK_NODE_FOREIGN (-2)

/* Row i of a frame whose rows are `width` bytes wide (2, 4 or 8). */
static inline int64_t frame_row(const void *rows, int32_t width, int64_t i) {
    if (width == 2)
        return ((const int16_t *)rows)[i];
    if (width == 4)
        return ((const int32_t *)rows)[i];
    return ((const int64_t *)rows)[i];
}
/* Row i of rk_frame_hold's rows (i is evaluated once). */
#define ROW(i) frame_row(rows, width, (i))

/* rk_frame_hold outcomes (RK_OK, or RK_ERR_OOM with s poisoned). */
#define RK_HOLD_DAMAGED 1     /* resolve_frame would raise */
#define RK_HOLD_MISALIGNED 2  /* non-empty epochs, not one per entry */
#define RK_HOLD_FOREIGN 3     /* an accepted entry the kernel cannot hold */
#define RK_HOLD_REPEATED 4    /* a key twice in the frame, or already held */

/* Walk the rows by repro.api.snapshot.resolve_frame's rules, at any
 * width the same rules on the same values, and commit
 * every accepted entry into s: an entry is skipped when a node it names
 * is RK_NODE_UNRESOLVED, or when its epoch (epochs[i], 0 when n_epochs
 * is 0) differs from node_epoch of its key node — the prefetch's
 * adoption filter.  Index arithmetic is int64 and compares each count
 * against what remains, so no read leaves rows, the tables or epochs.
 *
 * Either every accepted entry is committed, in frame order, or none is
 * and the outcome says why (RK_ERR_OOM poisons s mid-commit: the binding
 * retires it): RK_HOLD_DAMAGED at the first damage (the
 * pass/fail of resolve_frame), else RK_HOLD_MISALIGNED, else the first
 * accepted entry the kernel refuses — a key or object node that is
 * RK_NODE_FOREIGN, a key or boundary stack of -1 (the cases
 * _put skips or refuses), or a key repeated in the frame or already in
 * the session.  A boundary node that is RK_NODE_FOREIGN packs the
 * sentinel n, as _put does.
 *
 * A width other than 2, 4 or 8 is RK_HOLD_DAMAGED before any row is
 * read.  offsets must have room for n_rows / 6 + 1 values (an entry
 * takes at least 6): it receives the row offset of each accepted entry.
 * out receives {entries, accepted, skipped, facts}. */
int32_t rk_frame_hold(RkSession *s, int64_t n_rows, const void *rows,
                      int32_t width, int32_t n_nodes, const int32_t *node_idx,
                      const int32_t *node_obj, const int64_t *node_epoch,
                      int32_t n_stacks, const int32_t *stack_id,
                      int64_t n_epochs, const int64_t *epochs,
                      int64_t *offsets, int64_t *out) {
    int64_t pos = 0, entries = 0, accepted = 0, skipped = 0, facts = 0;
    int32_t refused = RK_OK, status = RK_OK;
    int32_t n = s->g->n;
    int64_t i, k;
    KSet seen;
    IntBuf objs, bt, bf;
    out[0] = out[1] = out[2] = out[3] = 0;
    if (width != 2 && width != 4 && width != 8)
        return RK_HOLD_DAMAGED;
    if (kset_init(&seen, 1024) < 0) {
        s->oom = 1;
        return RK_ERR_OOM;
    }
    while (pos < n_rows) {
        int64_t start = pos, node, stack, state, steps, count, nb, server_epoch;
        int resolved;
        if (n_rows - pos < 6) /* the key, steps and both counts */
            goto damaged;
        node = ROW(pos);
        stack = ROW(pos + 1);
        state = ROW(pos + 2);
        steps = ROW(pos + 3);
        count = ROW(pos + 4);
        if (node < 0 || node >= n_nodes || stack < 0 || stack >= n_stacks ||
            (state != RK_S1 && state != RK_S2) || steps < 0 || count < 0)
            goto damaged;
        pos += 5;
        if (count >= n_rows - pos) /* the boundary count must follow */
            goto damaged;
        resolved = node_idx[node] != RK_NODE_UNRESOLVED;
        for (k = 0; k < count; k++) {
            int64_t obj = ROW(pos + k);
            if (obj < 0 || obj >= n_nodes || !node_obj[obj])
                goto damaged;
            if (node_idx[obj] == RK_NODE_UNRESOLVED)
                resolved = 0;
        }
        pos += count;
        nb = ROW(pos++);
        if (nb < 0 || nb > (n_rows - pos) / 3)
            goto damaged;
        for (k = 0; k < nb; k++) {
            int64_t bnode = ROW(pos + 3 * k), bstack = ROW(pos + 3 * k + 1);
            int64_t bstate = ROW(pos + 3 * k + 2);
            if (bnode < 0 || bnode >= n_nodes || bstack < 0 || bstack >= n_stacks ||
                (bstate != RK_S1 && bstate != RK_S2))
                goto damaged;
            if (node_idx[bnode] == RK_NODE_UNRESOLVED)
                resolved = 0;
        }
        pos += 3 * nb;
        /* entry `entries` is sound; does the prefetch adopt it? */
        i = entries++;
        if (!resolved) {
            skipped++;
            continue;
        }
        if (n_epochs && i >= n_epochs) {
            if (refused == RK_OK)
                refused = RK_HOLD_MISALIGNED;
            continue;
        }
        server_epoch = n_epochs ? epochs[i] : 0;
        if (server_epoch != node_epoch[node]) {
            skipped++;
            continue;
        }
        if (refused != RK_OK)
            continue; /* refused already; only damage can still change that */
        if (node_idx[node] < 0 || stack_id[stack] < 0 || count > INT32_MAX ||
            nb > INT32_MAX)
            refused = RK_HOLD_FOREIGN;
        for (k = 0; k < count && refused == RK_OK; k++)
            if (node_idx[ROW(start + 5 + k)] < 0)
                refused = RK_HOLD_FOREIGN;
        for (k = 0; k < nb && refused == RK_OK; k++)
            if (stack_id[ROW(pos - 3 * nb + 3 * k + 1)] < 0)
                refused = RK_HOLD_FOREIGN;
        if (refused != RK_OK)
            continue;
        {
            uint64_t key = summary_key(node_idx[node] * 4 + (int32_t)state,
                                       stack_id[stack]);
            int added;
            if (kmap_get(&s->index, key) >= 0) {
                refused = RK_HOLD_REPEATED;
                continue;
            }
            added = kset_add(&seen, key, 0);
            if (added < 0) {
                kset_free(&seen);
                s->oom = 1;
                return RK_ERR_OOM;
            }
            if (!added) {
                refused = RK_HOLD_REPEATED;
                continue;
            }
        }
        offsets[accepted++] = start;
        facts += count + nb;
    }
    kset_free(&seen);
    if (n_epochs && entries != n_epochs)
        refused = RK_HOLD_MISALIGNED;
    out[0] = entries;
    out[2] = skipped;
    if (refused != RK_OK)
        return refused;
    /* every accepted entry is sound and holdable: commit them */
    buf_init(&objs);
    buf_init(&bt);
    buf_init(&bf);
    for (i = 0; i < accepted && status == RK_OK; i++) {
        int64_t at = offsets[i];
        int64_t count = ROW(at + 4), nb;
        objs.len = bt.len = bf.len = 0;
        for (k = 0; k < count && status == RK_OK; k++)
            if (buf_push(&objs, node_idx[ROW(at + 5 + k)]) < 0)
                status = RK_ERR_OOM;
        at += 5 + count;
        nb = ROW(at++);
        for (k = 0; k < nb && status == RK_OK; k++, at += 3) {
            int32_t bi = node_idx[ROW(at)];
            if (buf_push(&bt, (bi >= 0 ? bi : n) * 4 + (int32_t)ROW(at + 2)) < 0 ||
                buf_push(&bf, stack_id[ROW(at + 1)]) < 0)
                status = RK_ERR_OOM;
        }
        at = offsets[i];
        if (status == RK_OK &&
            session_commit(s, node_idx[ROW(at)] * 4 + (int32_t)ROW(at + 2),
                           stack_id[ROW(at + 1)], ROW(at + 3), objs.data,
                           objs.len, bt.data, bf.data, bt.len) < 0)
            status = RK_ERR_OOM;
    }
    buf_free(&objs);
    buf_free(&bt);
    buf_free(&bf);
    if (status != RK_OK) {
        s->oom = 1;
        return RK_ERR_OOM;
    }
    out[1] = accepted;
    out[3] = facts;
    return RK_OK;
damaged:
    kset_free(&seen);
    out[0] = entries;
    return RK_HOLD_DAMAGED;
}
#undef ROW

/* ------------------------------------------------------------------ */
/* boundary ordering (repro.analysis.ppta._boundary_order)            */
/*                                                                    */
/* Python sorts boundary tuples by (node.sort_key, state,             */
/* field_stack.to_tuple()).  node_rank / tok_rank are the Python-     */
/* computed ranks of those sort keys, so rank comparison here is      */
/* order-isomorphic; stack tuples compare bottom-to-top with the      */
/* shorter-prefix-first rule, exactly like Python tuple comparison.   */
/* ------------------------------------------------------------------ */
static int cmp_fstack_seq(const RkGraph *g, int32_t a, int32_t b) {
    const int32_t *parent = g->fstacks.parent.data;
    const int32_t *value = g->fstacks.value.data;
    const int32_t *depth = g->fstacks.depth.data;
    const int32_t *rank = g->tok_rank;
    int c;
    if (a == b)
        return 0;
    if (depth[a] < depth[b]) {
        /* compare a against b's prefix of equal length */
        int32_t bb = b;
        while (depth[bb] > depth[a])
            bb = parent[bb];
        c = cmp_fstack_seq(g, a, bb);
        return c ? c : -1; /* equal prefix: shorter sorts first */
    }
    if (depth[a] > depth[b]) {
        int32_t aa = a;
        while (depth[aa] > depth[b])
            aa = parent[aa];
        c = cmp_fstack_seq(g, aa, b);
        return c ? c : 1;
    }
    /* equal depths: bottom part first, then the tops */
    c = cmp_fstack_seq(g, parent[a], parent[b]);
    if (c)
        return c;
    return rank[value[a]] < rank[value[b]] ? -1 : 1;
}

typedef struct {
    int32_t t;
    int32_t f;
} Boundary;

static const RkGraph *g_sort_graph; /* PyDLL calls are serialized by the GIL */

static int cmp_boundary(const void *pa, const void *pb) {
    const Boundary *a = (const Boundary *)pa;
    const Boundary *b = (const Boundary *)pb;
    const RkGraph *g = g_sort_graph;
    int32_t ra = g->node_rank[a->t >> 2], rb = g->node_rank[b->t >> 2];
    int32_t sa, sb;
    if (ra != rb)
        return ra < rb ? -1 : 1;
    sa = a->t & 3;
    sb = b->t & 3;
    if (sa != sb)
        return sa < sb ? -1 : 1;
    return cmp_fstack_seq(g, a->f, b->f);
}

/* ------------------------------------------------------------------ */
/* PPTA — the C mirror of _run_ppta_array                             */
/* ------------------------------------------------------------------ */
/* Expand helper shared by both prologue branches is deliberately NOT
 * factored out: the code below keeps the exact statement order of the
 * Python template so the two stay reviewable side by side. */

/* try_push: add-and-compare on the visited set, then LIFO push. */
#define TRY_PUSH(t2, f2)                                                   \
    do {                                                                   \
        int added = kset_add(&visited, ((uint64_t)(uint32_t)(f2) << 32) |  \
                                           (uint32_t)(t2),                 \
                             0);                                           \
        if (added < 0)                                                     \
            goto oom;                                                      \
        if (added && buf_push2(&lifo, (t2), (f2)) < 0)                     \
            goto oom;                                                      \
    } while (0)

/* Runs one DSPOINTSTO over the image.  *ptotal is the absolute step
 * mirror of budget.steps; limit < 0 means unlimited, depth_limit < 0
 * means no k-limit.  Emission-order facts land in out_objs /
 * out_bt+out_bf; *out_steps gets the run's own step count.  Returns
 * RK_OK / RK_ABORT / RK_ERR_OOM. */
static int ppta_core(RkGraph *g, int32_t start_t, int32_t f0, int64_t *ptotal,
                     int64_t limit, int32_t depth_limit, IntBuf *out_objs,
                     IntBuf *out_bt, IntBuf *out_bf, int64_t *out_steps) {
    const int32_t n = g->n;
    const int32_t *new_off = g->a[A_NEW_OFF], *new_val = g->a[A_NEW_VAL];
    const int32_t *as_off = g->a[A_AS_OFF], *as_val = g->a[A_AS_VAL];
    const int32_t *li_off = g->a[A_LI_OFF], *li_tok = g->a[A_LI_TOK],
                  *li_val = g->a[A_LI_VAL];
    const int32_t *at_off = g->a[A_AT_OFF], *at_val = g->a[A_AT_VAL];
    const int32_t *lf_off = g->a[A_LF_OFF], *lf_fid = g->a[A_LF_FID],
                  *lf_val = g->a[A_LF_VAL];
    const int32_t *si_off = g->a[A_SI_OFF], *si_fid = g->a[A_SI_FID],
                  *si_val = g->a[A_SI_VAL];
    const int32_t *sf_off = g->a[A_SF_OFF], *sf_tok = g->a[A_SF_TOK],
                  *sf_val = g->a[A_SF_VAL];
    const uint8_t *flags = g->flags;
    StackTable *fstacks = &g->fstacks;
    const int64_t steps_before = *ptotal;
    int64_t steps;
    int32_t si = start_t >> 2;
    int32_t state = start_t & 3;
    IntBuf lifo; /* interleaved (t, f) pairs; the prologue's pending list
                  * seeds it in push order, preserving LIFO discipline */
    KSet visited;
    int status = RK_OK;
    int32_t i, j;

    *out_steps = 0;
    buf_init(&lifo);
    visited.k1 = NULL;
    visited.k2 = NULL;

    if (limit >= 0 && steps_before >= limit) {
        *ptotal = steps_before + 1;
        return RK_ABORT;
    }

    /* --- single-expansion prologue (si == n: every row is empty) --- */
    if (si < n) {
        if (state == RK_S1) {
            if (new_off[si] != new_off[si + 1]) {
                if (f0 == 0) {
                    for (j = new_off[si]; j < new_off[si + 1]; j++)
                        if (buf_push(out_objs, new_val[j]) < 0)
                            goto oom;
                } else {
                    /* "new new-bar" turnaround */
                    if (buf_push2(&lifo, start_t + 1, f0) < 0)
                        goto oom;
                }
            }
            for (j = as_off[si]; j < as_off[si + 1]; j++) {
                int32_t t = as_val[j] * 4 + RK_S1;
                if (t == start_t)
                    continue; /* self-assign: equals the start state */
                if (buf_push2(&lifo, t, f0) < 0)
                    goto oom;
            }
            if (li_off[si] != li_off[si + 1]) {
                if (depth_limit >= 0 && fstacks->depth.data[f0] >= depth_limit) {
                    *ptotal = steps_before + 1;
                    status = RK_ABORT;
                    goto done_prologue_abort;
                }
                for (j = li_off[si]; j < li_off[si + 1]; j++) {
                    int32_t pushed = stacks_push(fstacks, f0, li_tok[j]);
                    if (pushed < 0)
                        goto oom;
                    if (buf_push2(&lifo, li_val[j] * 4 + RK_S1, pushed) < 0)
                        goto oom;
                }
            }
            if (flags[si] & RK_FLAG_GLOBAL_IN)
                if (buf_push(out_bt, start_t) < 0 || buf_push(out_bf, f0) < 0)
                    goto oom;
        } else {
            for (j = at_off[si]; j < at_off[si + 1]; j++) {
                int32_t t = at_val[j] * 4 + RK_S2;
                if (t == start_t)
                    continue; /* self-assign: equals the start state */
                if (buf_push2(&lifo, t, f0) < 0)
                    goto oom;
            }
            if (f0 != 0) {
                int32_t top = fstacks->value.data[f0];
                int32_t rest = fstacks->parent.data[f0];
                int32_t top_fid = g->tok_fid[top];
                for (j = lf_off[si]; j < lf_off[si + 1]; j++)
                    if (lf_fid[j] == top_fid)
                        if (buf_push2(&lifo, lf_val[j] * 4 + RK_S2, rest) < 0)
                            goto oom;
                if (g->tok_fam[top] == RK_FAM_LOAD)
                    for (j = si_off[si]; j < si_off[si + 1]; j++)
                        if (si_fid[j] == top_fid)
                            if (buf_push2(&lifo, si_val[j] * 4 + RK_S1, rest) < 0)
                                goto oom;
            }
            if (sf_off[si] != sf_off[si + 1]) {
                if (depth_limit >= 0 && fstacks->depth.data[f0] >= depth_limit) {
                    *ptotal = steps_before + 1;
                    status = RK_ABORT;
                    goto done_prologue_abort;
                }
                for (j = sf_off[si]; j < sf_off[si + 1]; j++) {
                    int32_t pushed = stacks_push(fstacks, f0, sf_tok[j]);
                    if (pushed < 0)
                        goto oom;
                    if (buf_push2(&lifo, sf_val[j] * 4 + RK_S1, pushed) < 0)
                        goto oom;
                }
            }
            if (flags[si] & RK_FLAG_GLOBAL_OUT)
                if (buf_push(out_bt, start_t) < 0 || buf_push(out_bf, f0) < 0)
                    goto oom;
        }
    }
    if (lifo.len == 0) {
        *ptotal = steps_before + 1;
        *out_steps = 1;
        buf_free(&lifo);
        return RK_OK;
    }

    /* --- general phase --- */
    if (kset_init(&visited, 256) < 0)
        goto oom;
    if (kset_add(&visited, ((uint64_t)(uint32_t)f0 << 32) | (uint32_t)start_t, 0) < 0)
        goto oom;
    for (i = 0; i < lifo.len; i += 2)
        if (kset_add(&visited,
                     ((uint64_t)(uint32_t)lifo.data[i + 1] << 32) |
                         (uint32_t)lifo.data[i],
                     0) < 0)
            goto oom;
    {
        const int64_t allowed = limit < 0 ? -1 : limit - steps_before;
        steps = 1; /* the prologue's start expansion */
        while (lifo.len) {
            int32_t f = lifo.data[--lifo.len];
            int32_t t = lifo.data[--lifo.len];
            int32_t vi = t >> 2;
            steps += 1;
            if (allowed >= 0 && steps > allowed) {
                status = RK_ABORT;
                break;
            }
            if (t & 1) { /* S1 — states are 1 and 2, bit 0 distinguishes */
                if (new_off[vi] != new_off[vi + 1]) {
                    if (f == 0) { /* empty stack: emit the objects */
                        for (j = new_off[vi]; j < new_off[vi + 1]; j++)
                            if (buf_push(out_objs, new_val[j]) < 0)
                                goto oom;
                    } else {
                        /* "new new-bar" turnaround (Algorithm 3 line 10) */
                        TRY_PUSH(t + 1, f);
                    }
                }
                for (j = as_off[vi]; j < as_off[vi + 1]; j++)
                    TRY_PUSH(as_val[j] * 4 + RK_S1, f);
                if (li_off[vi] != li_off[vi + 1]) {
                    if (depth_limit >= 0 &&
                        g->fstacks.depth.data[f] >= depth_limit) {
                        status = RK_ABORT;
                        break;
                    }
                    for (j = li_off[vi]; j < li_off[vi + 1]; j++) {
                        int32_t pushed = stacks_push(&g->fstacks, f, li_tok[j]);
                        if (pushed < 0)
                            goto oom;
                        TRY_PUSH(li_val[j] * 4 + RK_S1, pushed);
                    }
                }
                if (flags[vi] & RK_FLAG_GLOBAL_IN)
                    if (buf_push(out_bt, t) < 0 || buf_push(out_bf, f) < 0)
                        goto oom;
            } else {
                for (j = at_off[vi]; j < at_off[vi + 1]; j++)
                    TRY_PUSH(at_val[j] * 4 + RK_S2, f);
                if (f != 0) {
                    int32_t top = g->fstacks.value.data[f];
                    int32_t rest = g->fstacks.parent.data[f];
                    int32_t top_fid = g->tok_fid[top];
                    for (j = lf_off[vi]; j < lf_off[vi + 1]; j++)
                        if (lf_fid[j] == top_fid) /* forward load closes either family */
                            TRY_PUSH(lf_val[j] * 4 + RK_S2, rest);
                    if (g->tok_fam[top] == RK_FAM_LOAD)
                        for (j = si_off[vi]; j < si_off[vi + 1]; j++)
                            if (si_fid[j] == top_fid)
                                /* store-bar: only a pending backward load may
                                 * be closed here */
                                TRY_PUSH(si_val[j] * 4 + RK_S1, rest);
                }
                if (sf_off[vi] != sf_off[vi + 1]) {
                    /* tracked object stored into b.g — aliases of the base
                     * backward, with g pending */
                    if (depth_limit >= 0 &&
                        g->fstacks.depth.data[f] >= depth_limit) {
                        status = RK_ABORT;
                        break;
                    }
                    for (j = sf_off[vi]; j < sf_off[vi + 1]; j++) {
                        int32_t pushed = stacks_push(&g->fstacks, f, sf_tok[j]);
                        if (pushed < 0)
                            goto oom;
                        TRY_PUSH(sf_val[j] * 4 + RK_S1, pushed);
                    }
                }
                if (flags[vi] & RK_FLAG_GLOBAL_OUT)
                    if (buf_push(out_bt, t) < 0 || buf_push(out_bf, f) < 0)
                        goto oom;
            }
        }
        *ptotal = steps_before + steps;
        *out_steps = steps;
    }
    buf_free(&lifo);
    kset_free(&visited);
    return status;

done_prologue_abort:
    buf_free(&lifo);
    return status;

oom:
    buf_free(&lifo);
    kset_free(&visited);
    return RK_ERR_OOM;
}

/* Probe-or-compute against the session table.  On a computed summary,
 * boundaries with more than one entry are sorted into _boundary_order
 * before the commit (matching what the Python loops store).  Returns
 * the record number, or -1 with *pstatus set (RK_ABORT / RK_ERR_OOM).
 * *pnew is set to 1 when the summary was computed (a cache miss). */
static int32_t session_summarize(RkSession *s, int32_t t, int32_t f,
                                 int64_t *ptotal, int64_t limit,
                                 int32_t depth_limit, int *pstatus, int *pnew) {
    RkGraph *g = s->g;
    IntBuf objs, bt, bf;
    int64_t own_steps = 0;
    int status;
    int32_t rec;

    *pnew = 0;
    rec = kmap_get(&s->index, summary_key(t, f));
    if (rec >= 0)
        return rec;
    *pnew = 1;

    buf_init(&objs);
    buf_init(&bt);
    buf_init(&bf);
    status = ppta_core(g, t, f, ptotal, limit, depth_limit, &objs, &bt, &bf,
                       &own_steps);
    if (status != RK_OK) {
        /* budget/depth abort or OOM: the partial summary is discarded,
         * exactly as the Python loops do (the raise skips the insert). */
        buf_free(&objs);
        buf_free(&bt);
        buf_free(&bf);
        *pstatus = status;
        return -1;
    }
    if (bt.len > 1) {
        Boundary *tmp = (Boundary *)malloc((size_t)bt.len * sizeof(Boundary));
        int32_t i;
        if (!tmp) {
            buf_free(&objs);
            buf_free(&bt);
            buf_free(&bf);
            *pstatus = RK_ERR_OOM;
            return -1;
        }
        for (i = 0; i < bt.len; i++) {
            tmp[i].t = bt.data[i];
            tmp[i].f = bf.data[i];
        }
        g_sort_graph = g;
        qsort(tmp, (size_t)bt.len, sizeof(Boundary), cmp_boundary);
        for (i = 0; i < bt.len; i++) {
            bt.data[i] = tmp[i].t;
            bf.data[i] = tmp[i].f;
        }
        free(tmp);
    }
    rec = session_commit(s, t, f, own_steps, objs.data, objs.len, bt.data,
                         bf.data, bt.len);
    buf_free(&objs);
    buf_free(&bt);
    buf_free(&bf);
    if (rec < 0) {
        *pstatus = RK_ERR_OOM;
        return -1;
    }
    return rec;
}

/* ------------------------------------------------------------------ */
/* result structs (mirrored as ctypes.Structure in the binding)       */
/* ------------------------------------------------------------------ */
typedef struct {
    int32_t status;
    int32_t n_objects;
    int32_t n_boundaries;
    int32_t _pad;
    int64_t total; /* absolute value for budget.steps */
    int32_t *objects;
    int32_t *b_t;
    int32_t *b_f;
} RkPptaResult;

typedef struct {
    int32_t status;
    int32_t hits;
    int32_t misses;
    int32_t n_pairs;
    int32_t n_new; /* summary records created by this call */
    int32_t _pad;
    int64_t total; /* absolute value for budget.steps */
    int32_t *pair_obj;
    int32_t *pair_ctx;
    int32_t *new_t;       /* per new record: key state / key stack */
    int32_t *new_f;
    int64_t *new_steps;
    int32_t *new_obj_off; /* n_new + 1 offsets into new_obj */
    int32_t *new_obj;
    int32_t *new_b_off;   /* n_new + 1 offsets into new_b_t / new_b_f */
    int32_t *new_b_t;
    int32_t *new_b_f;
} RkDynResult;

static int32_t *steal_i32(IntBuf *b) {
    /* hand the buffer's storage to a result struct (freed by rk_*_free);
     * NULL stays NULL for empty buffers */
    int32_t *data = b->data;
    b->data = NULL;
    b->len = b->cap = 0;
    return data;
}

void rk_ppta_free(RkPptaResult *r) {
    if (!r)
        return;
    free(r->objects);
    free(r->b_t);
    free(r->b_f);
    free(r);
}

void rk_dyn_free(RkDynResult *r) {
    if (!r)
        return;
    free(r->pair_obj);
    free(r->pair_ctx);
    free(r->new_t);
    free(r->new_f);
    free(r->new_steps);
    free(r->new_obj_off);
    free(r->new_obj);
    free(r->new_b_off);
    free(r->new_b_t);
    free(r->new_b_f);
    free(r);
}

/* Standalone PPTA (the run_ppta("native") driver).  Facts come back in
 * emission order — the Python wrapper applies the same
 * sorted-if-more-than-one policy as _run_ppta_array. */
RkPptaResult *rk_ppta(RkGraph *g, int32_t start_t, int32_t f0,
                      int64_t steps_before, int64_t limit,
                      int32_t depth_limit) {
    RkPptaResult *r = (RkPptaResult *)calloc(1, sizeof(RkPptaResult));
    IntBuf objs, bt, bf;
    int64_t own_steps = 0;
    int64_t total = steps_before;
    int status;
    if (!r)
        return NULL;
    buf_init(&objs);
    buf_init(&bt);
    buf_init(&bf);
    status = ppta_core(g, start_t, f0, &total, limit, depth_limit, &objs, &bt,
                       &bf, &own_steps);
    r->status = status;
    r->total = total;
    r->n_objects = objs.len;
    r->n_boundaries = bt.len;
    r->objects = steal_i32(&objs);
    r->b_t = steal_i32(&bt);
    r->b_f = steal_i32(&bf);
    return r;
}

/* ------------------------------------------------------------------ */
/* DYNSUM — the C mirror of DynSum._explore_array                     */
/* ------------------------------------------------------------------ */
RkDynResult *rk_dynsum(RkSession *sess, int32_t t0, int32_t ctx0,
                       int64_t steps_before, int64_t limit,
                       int32_t depth_limit, int32_t track) {
    RkGraph *g = sess->g;
    const int32_t n = g->n;
    const int32_t *cb_off = g->a[A_CB_OFF], *cb_op = g->a[A_CB_OP],
                  *cb_site = g->a[A_CB_SITE], *cb_tgt = g->a[A_CB_TGT];
    const int32_t *cf_off = g->a[A_CF_OFF], *cf_op = g->a[A_CF_OP],
                  *cf_site = g->a[A_CF_SITE], *cf_tgt = g->a[A_CF_TGT];
    const uint8_t *flags = g->flags;
    StackTable *cstacks = &g->cstacks;
    const int32_t new_base = sess->rec_t.len;
    RkDynResult *r = (RkDynResult *)calloc(1, sizeof(RkDynResult));
    IntBuf fifo;       /* interleaved (t, f, ctx) triples */
    int32_t fifo_head = 0;
    KSet seen, pairset;
    IntBuf pair_obj, pair_ctx;
    int64_t total = steps_before;
    const int64_t ceiling = limit; /* < 0: unlimited */
    int status = RK_OK;
    int32_t hits = 0, misses = 0;
    int32_t j;

    if (!r)
        return NULL;
    buf_init(&fifo);
    buf_init(&pair_obj);
    buf_init(&pair_ctx);
    seen.k1 = NULL;
    seen.k2 = NULL;
    pairset.k1 = NULL;
    pairset.k2 = NULL;
    if (kset_init(&seen, 256) < 0 || kset_init(&pairset, 64) < 0)
        goto oom;
    if (kset_add(&seen, ((uint64_t)0 << 32) | (uint32_t)t0, (uint32_t)ctx0) < 0)
        goto oom;
    if (buf_push3(&fifo, t0, 0, ctx0) < 0) /* start stack is EMPTY (id 0) */
        goto oom;

    while (fifo_head < fifo.len) {
        int32_t t = fifo.data[fifo_head];
        int32_t f = fifo.data[fifo_head + 1];
        int32_t c = fifo.data[fifo_head + 2];
        int32_t s, ui, flag;
        int32_t rec = -1;
        int32_t b_lo = 0, b_hi = 0; /* boundary range in the session pools */
        int32_t triv_t = 0, triv_f = 0;
        int use_pools;
        fifo_head += 3;
        total += 1;
        if (ceiling >= 0 && total > ceiling) {
            status = RK_ABORT;
            break;
        }
        s = t & 3;
        ui = t >> 2;
        flag = flags[ui]; /* sentinel index n reads the zero byte */
        if (flag & RK_FLAG_LOCAL) {
            int is_new = 0;
            rec = session_summarize(sess, t, f, &total, limit, depth_limit,
                                    &status, &is_new);
            if (is_new)
                misses += 1;
            if (rec < 0) {
                if (status == RK_ERR_OOM)
                    goto oom;
                break; /* RK_ABORT: total already carries the ppta charge */
            }
            if (!is_new)
                hits += 1;
            /* objects -> pairs under the item's context */
            {
                int32_t o_lo = sess->rec_obj_off.data[rec];
                int32_t o_hi = sess->rec_obj_off.data[rec + 1];
                int32_t ctx = track ? c : 0;
                for (j = o_lo; j < o_hi; j++) {
                    int32_t obj = sess->obj_pool.data[j];
                    int added = kset_add(&pairset, (uint64_t)(uint32_t)obj,
                                         (uint32_t)ctx);
                    if (added < 0)
                        goto oom;
                    if (added && buf_push2(&pair_obj, obj, ctx) < 0)
                        goto oom;
                }
            }
            b_lo = sess->rec_b_off.data[rec];
            b_hi = sess->rec_b_off.data[rec + 1];
            if (b_lo == b_hi)
                continue;
            use_pools = 1;
        } else if (flag & s) { /* FLAG_GLOBAL_IN gates S1, _OUT gates S2 */
            /* Section 4.3: no local edges — the node is its own
             * (trivial) boundary */
            triv_t = t;
            triv_f = f;
            b_lo = 0;
            b_hi = 1;
            use_pools = 0;
        } else {
            continue;
        }
        for (; b_lo < b_hi; b_lo++) {
            int32_t bt = use_pools ? sess->b_t_pool.data[b_lo] : triv_t;
            int32_t bf = use_pools ? sess->b_f_pool.data[b_lo] : triv_f;
            int32_t s1 = bt & 3;
            int32_t xi = bt >> 2;
            int32_t lo, hi;
            const int32_t *r_op, *r_site, *r_tgt;
            int32_t pack_state;
            if (xi >= n)
                continue; /* sentinel: no crossing rows */
            if (s1 == RK_S1) {
                lo = cb_off[xi];
                hi = cb_off[xi + 1];
                r_op = cb_op;
                r_site = cb_site;
                r_tgt = cb_tgt;
                pack_state = RK_S1;
            } else {
                lo = cf_off[xi];
                hi = cf_off[xi + 1];
                r_op = cf_op;
                r_site = cf_site;
                r_tgt = cf_tgt;
                pack_state = RK_S2;
            }
            for (j = lo; j < hi; j++) {
                int32_t op = r_op[j];
                int32_t ctx;
                int32_t t1;
                if (op == RK_OP_PUSH) {
                    ctx = stacks_push(cstacks, c, r_site[j]);
                    if (ctx < 0)
                        goto oom;
                } else if (op == RK_OP_POP) {
                    if (c == 0)
                        ctx = c;
                    else if (cstacks->value.data[c] == r_site[j])
                        ctx = cstacks->parent.data[c];
                    else
                        continue; /* unrealizable */
                } else if (op == RK_OP_CLEAR) {
                    ctx = 0;
                } else { /* OP_PUSH_REC / OP_POP_REC: context unchanged */
                    ctx = c;
                }
                t1 = r_tgt[j] * 4 + pack_state;
                {
                    int added = kset_add(
                        &seen,
                        ((uint64_t)(uint32_t)bf << 32) | (uint32_t)t1,
                        (uint32_t)ctx);
                    if (added < 0)
                        goto oom;
                    if (added && buf_push3(&fifo, t1, bf, ctx) < 0)
                        goto oom;
                }
            }
        }
    }

    r->status = status;
    r->total = total;
    r->hits = hits;
    r->misses = misses;
    goto package;

oom:
    r->status = RK_ERR_OOM;
    r->total = total;
    r->hits = hits;
    r->misses = misses;

package:
    buf_free(&fifo);
    kset_free(&seen);
    kset_free(&pairset);
    if (r->status == RK_ERR_OOM) {
        buf_free(&pair_obj);
        buf_free(&pair_ctx);
        return r;
    }
    /* de-interleave the pairs */
    r->n_pairs = pair_obj.len / 2;
    if (r->n_pairs) {
        int32_t i;
        r->pair_obj = (int32_t *)malloc((size_t)r->n_pairs * sizeof(int32_t));
        r->pair_ctx = (int32_t *)malloc((size_t)r->n_pairs * sizeof(int32_t));
        if (!r->pair_obj || !r->pair_ctx) {
            r->status = RK_ERR_OOM;
            buf_free(&pair_obj);
            return r;
        }
        for (i = 0; i < r->n_pairs; i++) {
            r->pair_obj[i] = pair_obj.data[2 * i];
            r->pair_ctx[i] = pair_obj.data[2 * i + 1];
        }
    }
    buf_free(&pair_obj);
    buf_free(&pair_ctx);
    /* export the records this call created, in computation order */
    r->n_new = sess->rec_t.len - new_base;
    if (r->n_new) {
        int32_t i;
        int32_t obj_base = sess->rec_obj_off.data[new_base];
        int32_t b_base = sess->rec_b_off.data[new_base];
        int32_t n_obj = sess->obj_pool.len - obj_base;
        int32_t n_b = sess->b_t_pool.len - b_base;
        r->new_t = (int32_t *)malloc((size_t)r->n_new * sizeof(int32_t));
        r->new_f = (int32_t *)malloc((size_t)r->n_new * sizeof(int32_t));
        r->new_steps = (int64_t *)malloc((size_t)r->n_new * sizeof(int64_t));
        r->new_obj_off = (int32_t *)malloc(((size_t)r->n_new + 1) * sizeof(int32_t));
        r->new_b_off = (int32_t *)malloc(((size_t)r->n_new + 1) * sizeof(int32_t));
        r->new_obj = n_obj ? (int32_t *)malloc((size_t)n_obj * sizeof(int32_t)) : NULL;
        r->new_b_t = n_b ? (int32_t *)malloc((size_t)n_b * sizeof(int32_t)) : NULL;
        r->new_b_f = n_b ? (int32_t *)malloc((size_t)n_b * sizeof(int32_t)) : NULL;
        if (!r->new_t || !r->new_f || !r->new_steps || !r->new_obj_off ||
            !r->new_b_off || (n_obj && !r->new_obj) || (n_b && !r->new_b_t) ||
            (n_b && !r->new_b_f)) {
            r->status = RK_ERR_OOM;
            return r;
        }
        for (i = 0; i < r->n_new; i++) {
            r->new_t[i] = sess->rec_t.data[new_base + i];
            r->new_f[i] = sess->rec_f.data[new_base + i];
            r->new_steps[i] = sess->rec_steps.data[new_base + i];
            r->new_obj_off[i] = sess->rec_obj_off.data[new_base + i] - obj_base;
            r->new_b_off[i] = sess->rec_b_off.data[new_base + i] - b_base;
        }
        r->new_obj_off[r->n_new] = n_obj;
        r->new_b_off[r->n_new] = n_b;
        if (n_obj)
            memcpy(r->new_obj, sess->obj_pool.data + obj_base,
                   (size_t)n_obj * sizeof(int32_t));
        if (n_b) {
            memcpy(r->new_b_t, sess->b_t_pool.data + b_base,
                   (size_t)n_b * sizeof(int32_t));
            memcpy(r->new_b_f, sess->b_f_pool.data + b_base,
                   (size_t)n_b * sizeof(int32_t));
        }
    }
    return r;
}
