/* pcsample: an LD_PRELOAD program-counter sampler. SIGPROF every ~1 ms of
 * process CPU time records the interrupted RIP and the word at RSP (the
 * return address, whenever the interrupted code is a leaf that keeps no
 * frame — libc's mem* routines); at exit the samples, the memory map and
 * the resolved addresses of the libc/libm ifuncs (stripped distro libraries
 * carry no symbol for the implementation an ifunc picks) go to
 * pcsample.<pid>.out in the working directory. x86-64 Linux only. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1u << 20)
static unsigned long pcs[CAP], tops[CAP];
static volatile unsigned long n;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    greg_t *regs = ((ucontext_t *)uc)->uc_mcontext.gregs;
    if (n < CAP) pcs[n] = (unsigned long)regs[REG_RIP], tops[n++] = *(unsigned long *)regs[REG_RSP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct itimerval every = {{0, 997}, {0, 997}};
    sigaction(SIGPROF, &sa, NULL);
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    static const char *ifuncs[] = {"memmove", "memcpy", "memset", "memcmp", "strlen", "memchr",
                                   "exp", "log", "cos", "sin", "pow", "sqrt", NULL};
    struct itimerval off = {{0, 0}, {0, 0}};
    char path[64], line[512];
    setitimer(ITIMER_PROF, &off, NULL);
    snprintf(path, sizeof path, "pcsample.%d.out", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    for (const char **f = ifuncs; *f; f++) fprintf(out, "S %lx %s\n", (unsigned long)dlsym(RTLD_DEFAULT, *f), *f);
    for (unsigned long i = 0; i < n; i++) fprintf(out, "P %lx %lx\n", pcs[i], tops[i]);
    fclose(out);
}
