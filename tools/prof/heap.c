/* Live-heap peak tracer for a box with no heaptrack: preload it into any
 * binary and it records, at the peak of live heap bytes, every allocation
 * of at least 16 KiB that was live then, with a short backtrace.
 *
 *   cc -O2 -shared -fPIC -o heap.so tools/prof/heap.c
 *   HEAP_OUT=/tmp/heap.txt LD_PRELOAD=./heap.so \
 *       benchmark/target/release/sysbench --spec BENCHMARK.json \
 *       --out-dir /tmp/o --workload daemon_churn --seconds 20 --trace 0
 *   python3 tools/prof/bin_samples.py --heap /tmp/heap.txt
 *
 * Output: the process's /proc/self/maps, a line "heap PEAK SNAPSHOT
 * TRACKED" (the most live heap bytes seen, the live bytes when the
 * allocations below were copied, and what they hold of those), then one
 * line per allocation: its usable size and its return addresses, hex,
 * innermost first. Sizes are malloc_usable_size's. The peak is taken to
 * within 1/64 of itself: the table is copied only when the live heap has
 * grown that much past the last copy, so small allocations do not copy it
 * each. glibc only (it calls the __libc_ entry points, so there
 * is no dlsym to bootstrap); every thread's allocations count.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <malloc.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define BIG (16u << 10)
#define MAX_BIG 4096
#define DEPTH 10

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

struct big {
    void *ptr;
    size_t size;
    int depth;
    void *frames[DEPTH];
};

static struct big live[MAX_BIG], peak[MAX_BIG];
static unsigned n_live, n_peak;
static size_t live_bytes, peak_bytes, snap_bytes;
static int lock;
static __thread int busy;

static void take(void) {
    while (__atomic_exchange_n(&lock, 1, __ATOMIC_ACQUIRE))
        ;
}

static void give(void) { __atomic_store_n(&lock, 0, __ATOMIC_RELEASE); }

/* Accounts for `p` arriving (`sign` 1) or leaving (-1); the caller holds
 * the lock. A big arrival's backtrace is filled in by the caller. */
static struct big *account(void *p, int sign) {
    size_t size = malloc_usable_size(p);
    struct big *slot = NULL;
    if (sign > 0) {
        live_bytes += size;
        if (size >= BIG && n_live < MAX_BIG) {
            slot = &live[n_live++];
            slot->ptr = p;
            slot->size = size;
            slot->depth = 0;
        }
        if (live_bytes > peak_bytes)
            peak_bytes = live_bytes;
    } else {
        live_bytes -= size;
        if (size >= BIG)
            for (unsigned i = 0; i < n_live; i++)
                if (live[i].ptr == p) {
                    live[i] = live[--n_live];
                    break;
                }
    }
    return slot;
}

static void snapshot(void) {
    if (live_bytes <= snap_bytes + snap_bytes / 64)
        return;
    memcpy(peak, live, n_live * sizeof live[0]);
    n_peak = n_live;
    snap_bytes = live_bytes;
}

static void *arrive(void *p) {
    if (!p || busy)
        return p;
    busy = 1;
    take();
    struct big *slot = account(p, 1);
    if (slot)
        slot->depth = backtrace(slot->frames, DEPTH);
    snapshot();
    give();
    busy = 0;
    return p;
}

static void leave(void *p) {
    if (!p || busy)
        return;
    take();
    account(p, -1);
    give();
}

void *malloc(size_t n) { return arrive(__libc_malloc(n)); }

void *calloc(size_t n, size_t size) { return arrive(__libc_calloc(n, size)); }

void *realloc(void *p, size_t n) {
    leave(p);
    void *q = __libc_realloc(p, n);
    /* On failure `p` is still allocated (its backtrace is now this one). */
    return q || !n ? arrive(q) : (arrive(p), q);
}

void free(void *p) {
    leave(p);
    __libc_free(p);
}

void *memalign(size_t align, size_t n) { return arrive(__libc_memalign(align, n)); }

void *aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void **out, size_t align, size_t n) {
    void *p = memalign(align, n);
    if (!p)
        return 12; /* ENOMEM */
    *out = p;
    return 0;
}

__attribute__((constructor)) static void heap_start(void) {
    /* backtrace() loads its unwinder on first use, which allocates. */
    void *frames[2];
    busy = 1;
    backtrace(frames, 2);
    busy = 0;
}

__attribute__((destructor)) static void heap_stop(void) {
    busy = 1;
    const char *path = getenv("HEAP_OUT");
    FILE *out = fopen(path ? path : "heap.txt", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[512];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    size_t tracked = 0;
    for (unsigned i = 0; i < n_peak; i++)
        tracked += peak[i].size;
    fprintf(out, "heap %zu %zu %zu\n", peak_bytes, snap_bytes, tracked);
    for (unsigned i = 0; i < n_peak; i++) {
        fprintf(out, "%zu", peak[i].size);
        for (int f = 0; f < peak[i].depth; f++)
            fprintf(out, " %lx", (unsigned long)peak[i].frames[f]);
        fputc('\n', out);
    }
    fclose(out);
}
