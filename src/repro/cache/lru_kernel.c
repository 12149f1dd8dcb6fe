/*
 * The plain-LRU step kernel of the paper's two-level simulator (§4.1).
 *
 * One shared cache and p distributed caches, each an exact LRU over
 * block keys: an open-addressing hash map (linear probing, backward-
 * shift deletion) from key to node, and a doubly linked recency list
 * over the nodes, least recently used at the head.  Semantics are those
 * of repro.cache.hierarchy.LRUHierarchy.touch on the generic Cache
 * path, counter for counter:
 *
 *   - a reference goes to the core's distributed cache; a write marks
 *     the block dirty there;
 *   - a distributed miss is propagated to the shared cache as a read;
 *   - a dirty distributed victim counts one distributed write-back and
 *     dirties the shared copy if the shared cache still holds it;
 *   - a dirty shared victim counts one shared write-back.
 *
 * Built on first use by repro.cache.native (cffi, API mode).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAT_SHIFT 56
#define ERR_KEY (-1)
#define ERR_CORE (-2)

typedef struct {
    int64_t hits;
    int64_t misses;
    int64_t writebacks;
    int64_t misses_by_matrix[3];
} lru_counters;

typedef struct {
    uint64_t key;
    int32_t prev; /* toward the LRU end, -1 at the head */
    int32_t next; /* toward the MRU end, -1 at the tail */
    int32_t dirty;
} lru_node;

typedef struct {
    int32_t capacity;
    int32_t size;
    int32_t head; /* least recently used node, -1 when empty */
    int32_t tail; /* most recently used node, -1 when empty */
    uint32_t mask;
    int shift;
    int32_t *slots; /* node index + 1, 0 for an empty slot */
    lru_node *nodes;
    lru_counters c;
} lru_cache;

typedef struct lru_hier {
    int p;
    lru_cache shared;
    lru_cache *dist;
} lru_hier;

static uint32_t home(const lru_cache *c, uint64_t key)
{
    return (uint32_t)((key * 0x9E3779B97F4A7C15ull) >> c->shift);
}

/* Node holding key, or -1; *pos is its slot, or the free slot to use. */
static int32_t find(const lru_cache *c, uint64_t key, uint32_t *pos)
{
    uint32_t i = home(c, key);
    for (;;) {
        int32_t s = c->slots[i];
        if (s == 0 || c->nodes[s - 1].key == key) {
            *pos = i;
            return s - 1;
        }
        i = (i + 1) & c->mask;
    }
}

/* Empty slot i, shifting later entries of its probe run back. */
static void unslot(lru_cache *c, uint32_t i)
{
    uint32_t j = i;
    for (;;) {
        j = (j + 1) & c->mask;
        int32_t s = c->slots[j];
        if (s == 0)
            break;
        uint32_t k = home(c, c->nodes[s - 1].key);
        /* Move the entry into the hole unless its home lies in (i, j]. */
        if (i < j ? (k <= i || k > j) : (k <= i && k > j)) {
            c->slots[i] = s;
            i = j;
        }
    }
    c->slots[i] = 0;
}

static void unlink_node(lru_cache *c, int32_t n)
{
    lru_node *x = &c->nodes[n];
    if (x->prev >= 0)
        c->nodes[x->prev].next = x->next;
    else
        c->head = x->next;
    if (x->next >= 0)
        c->nodes[x->next].prev = x->prev;
    else
        c->tail = x->prev;
}

static void push_mru(lru_cache *c, int32_t n)
{
    lru_node *x = &c->nodes[n];
    x->prev = c->tail;
    x->next = -1;
    if (c->tail >= 0)
        c->nodes[c->tail].next = n;
    else
        c->head = n;
    c->tail = n;
}

static void to_mru(lru_cache *c, int32_t n)
{
    if (c->tail != n) {
        unlink_node(c, n);
        push_mru(c, n);
    }
}

/* Drop the LRU block; returns its node for reuse. */
static int32_t evict_lru(lru_cache *c)
{
    int32_t v = c->head;
    uint32_t pos;
    find(c, c->nodes[v].key, &pos);
    unslot(c, pos);
    unlink_node(c, v);
    return v;
}

static void insert(lru_cache *c, int32_t n, uint32_t pos, uint64_t key, int dirty)
{
    c->nodes[n].key = key;
    c->nodes[n].dirty = dirty;
    c->slots[pos] = n + 1;
    push_mru(c, n);
}

/* A read of key by the shared cache (a distributed miss). */
static void shared_read(lru_cache *s, uint64_t key)
{
    uint32_t pos;
    int32_t n = find(s, key, &pos);
    if (n >= 0) {
        s->c.hits++;
        to_mru(s, n);
        return;
    }
    s->c.misses++;
    s->c.misses_by_matrix[key >> MAT_SHIFT]++;
    if (s->size >= s->capacity) {
        n = evict_lru(s);
        if (s->nodes[n].dirty)
            s->c.writebacks++;
        find(s, key, &pos);
    } else {
        n = s->size++;
    }
    insert(s, n, pos, key, 0);
}

static int touch(lru_hier *h, int core, uint64_t key, int write)
{
    if ((key >> MAT_SHIFT) > 2)
        return ERR_KEY;
    lru_cache *d = &h->dist[core];
    uint32_t pos;
    int32_t n = find(d, key, &pos);
    if (n >= 0) {
        d->c.hits++;
        to_mru(d, n);
        if (write)
            d->nodes[n].dirty = 1;
        return 1;
    }
    d->c.misses++;
    d->c.misses_by_matrix[key >> MAT_SHIFT]++;
    if (d->size >= d->capacity) {
        n = evict_lru(d);
        if (d->nodes[n].dirty) {
            uint32_t spos;
            int32_t sn = find(&h->shared, d->nodes[n].key, &spos);
            d->c.writebacks++;
            if (sn >= 0)
                h->shared.nodes[sn].dirty = 1;
        }
        find(d, key, &pos);
    } else {
        n = d->size++;
    }
    insert(d, n, pos, key, write != 0);
    shared_read(&h->shared, key);
    return 0;
}

static int cache_init(lru_cache *c, int32_t capacity)
{
    uint32_t slots = 2;
    int bits = 1;
    while (slots < 2 * (uint32_t)capacity) {
        slots <<= 1;
        bits++;
    }
    c->capacity = capacity;
    c->mask = slots - 1;
    c->shift = 64 - bits;
    c->slots = calloc(slots, sizeof *c->slots);
    c->nodes = calloc((size_t)capacity, sizeof *c->nodes);
    c->size = 0;
    c->head = c->tail = -1;
    return c->slots != NULL && c->nodes != NULL;
}

static void cache_clear(lru_cache *c)
{
    memset(c->slots, 0, ((size_t)c->mask + 1) * sizeof *c->slots);
    c->size = 0;
    c->head = c->tail = -1;
    c->c = (lru_counters){0};
}

static lru_cache *cache_of(lru_hier *h, int cache)
{
    return cache < 0 ? &h->shared : &h->dist[cache];
}

/* ------------------------------------------------------------------ */
/* Exported API (declared in repro.cache.native.CDEF)                  */
/* ------------------------------------------------------------------ */

void lru_free(lru_hier *h)
{
    int c;
    if (h == NULL)
        return;
    free(h->shared.slots);
    free(h->shared.nodes);
    if (h->dist != NULL) {
        for (c = 0; c < h->p; c++) {
            free(h->dist[c].slots);
            free(h->dist[c].nodes);
        }
        free(h->dist);
    }
    free(h);
}

lru_hier *lru_new(int p, int32_t cs, int32_t cd)
{
    int c;
    lru_hier *h = calloc(1, sizeof *h);
    if (h == NULL)
        return NULL;
    h->p = p;
    h->dist = calloc((size_t)p, sizeof *h->dist);
    if (h->dist == NULL || !cache_init(&h->shared, cs)) {
        lru_free(h);
        return NULL;
    }
    for (c = 0; c < p; c++) {
        if (!cache_init(&h->dist[c], cd)) {
            lru_free(h);
            return NULL;
        }
    }
    return h;
}

void lru_reset(lru_hier *h)
{
    int c;
    cache_clear(&h->shared);
    for (c = 0; c < h->p; c++)
        cache_clear(&h->dist[c]);
}

/* 1 on a distributed hit, 0 on a miss, negative on a bad core or key. */
int lru_touch(lru_hier *h, int core, uint64_t key, int write)
{
    if (core < 0 || core >= h->p)
        return ERR_CORE;
    return touch(h, core, key, write);
}

/* The three references of C += A * B: A, B, then the written C. */
int lru_compute(lru_hier *h, int core, uint64_t ckey, uint64_t akey, uint64_t bkey)
{
    int rc;
    if (core < 0 || core >= h->p)
        return ERR_CORE;
    if ((rc = touch(h, core, akey, 0)) < 0 || (rc = touch(h, core, bkey, 0)) < 0
        || (rc = touch(h, core, ckey, 1)) < 0)
        return rc;
    return 0;
}

/* lru_compute(core, crow | j, akey, brow | j) for j in range(start, stop, step). */
int lru_compute_row(lru_hier *h, int core, uint64_t akey, uint64_t crow,
                    uint64_t brow, int64_t start, int64_t stop, int64_t step)
{
    int64_t j;
    int rc;
    if (core < 0 || core >= h->p)
        return ERR_CORE;
    for (j = start; step > 0 ? j < stop : j > stop; j += step) {
        uint64_t col = (uint64_t)j;
        if ((rc = touch(h, core, akey, 0)) < 0 || (rc = touch(h, core, brow | col, 0)) < 0
            || (rc = touch(h, core, crow | col, 1)) < 0)
            return rc;
    }
    return 0;
}

/* cache < 0 names the shared cache, 0..p-1 a distributed one. */
void lru_counters_of(lru_hier *h, int cache, lru_counters *out)
{
    *out = cache_of(h, cache)->c;
}

int32_t lru_size(lru_hier *h, int cache)
{
    return cache_of(h, cache)->size;
}

/* Resident keys least recently used first, with their dirty flags. */
void lru_export(lru_hier *h, int cache, uint64_t *keys, int32_t *dirty)
{
    const lru_cache *c = cache_of(h, cache);
    int32_t n, i = 0;
    for (n = c->head; n >= 0; n = c->nodes[n].next, i++) {
        keys[i] = c->nodes[n].key;
        dirty[i] = c->nodes[n].dirty;
    }
}
