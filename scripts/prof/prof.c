/* SIGPROF sampler for an unmodified release binary (x86-64 Linux, glibc).
 *
 *   gcc -O2 -shared -fPIC -o /root/scratch/libprof.so scripts/prof/prof.c
 *   PROF_OUT=/root/scratch/cn.prof LD_PRELOAD=/root/scratch/libprof.so \
 *       benchmark/target/release/qrdtm-benchmark --workload cn_vacation --seed 1
 *   python3 scripts/prof/report.py /root/scratch/cn.prof
 *
 * Every millisecond of process CPU time the handler stores the interrupted
 * instruction pointer and up to DEPTH return addresses; at exit the samples
 * and the executable mappings they fall in are written to $PROF_OUT.
 * `backtrace` is not async-signal-safe in general: the constructor calls it
 * once so the unwinder is loaded before the first signal, and a sample that
 * lands inside the unwinder itself (a panic in flight) can still deadlock —
 * this is a measuring tool, not something to ship.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 17)
#define DEPTH 24

static void *frames[MAX_SAMPLES][1 + DEPTH];
static int depth[MAX_SAMPLES];
static volatile int taken;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    if (taken == MAX_SAMPLES)
        return;
    void **f = frames[taken];
    f[0] = (void *)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
    depth[taken] = 1 + backtrace(f + 1, DEPTH);
    taken++;
}

static void write_out(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        if (strstr(line, " r-xp "))
            fprintf(out, "M %s", line);
    for (int i = 0; i < taken; i++) {
        fputc('S', out);
        for (int j = 0; j < depth[i]; j++)
            fprintf(out, " %p", frames[i][j]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    void *warm[2];
    backtrace(warm, 2);
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    atexit(write_out);
}
