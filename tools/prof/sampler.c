/* SIGPROF sampler for a box with no `perf`: preload it into any binary and
 * it records the instruction pointer at every profiling-timer tick.
 *
 *   cc -O2 -shared -fPIC -o sampler.so tools/prof/sampler.c
 *   SAMPLER_OUT=/tmp/samples.txt LD_PRELOAD=./sampler.so \
 *       benchmark/target/release/sysbench --spec BENCHMARK.json \
 *       --out-dir /tmp/o --workload socket_services --seconds 20 --trace 0
 *   python3 tools/prof/bin_samples.py --by function /tmp/samples.txt
 *
 * Output: the process's /proc/self/maps (so a sample in libm or libc can
 * be attributed to its object), a line "samples", then one hex address per
 * sample. The timer asks for 1 ms and gets the kernel's tick (250 Hz here).
 * Linux on x86_64 or aarch64; CPU time of every thread counts, the
 * interrupted thread is the one sampled.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)

static unsigned long samples[MAX_SAMPLES];
static volatile unsigned n_samples;

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    ucontext_t *uc = context;
    unsigned slot = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES)
        return;
#if defined(__x86_64__)
    samples[slot] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    samples[slot] = (unsigned long)uc->uc_mcontext.pc;
#else
#error "sampler.c: add this architecture's program-counter register"
#endif
}

__attribute__((constructor)) static void sampler_start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "samples.txt", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[512];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("samples\n", out);
    unsigned n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}
