#!/usr/bin/env bash
# Sampling profiler for spinscope binaries, for hosts without `perf`.
#
#   scripts/profile.sh [--allocs] [--out DIR] -- BINARY [ARGS...]
#
#   --allocs      sample heap allocations instead of CPU time: every 97th
#                 malloc() is recorded with its call stack
#   --out DIR     keep the raw samples, maps and report in DIR
#                 (default: a temporary directory, removed afterwards)
#
# It compiles a small LD_PRELOAD library with the host C compiler, runs
# BINARY under it (CPU mode: a SIGPROF timer at 997 Hz), and prints two
# 60-row tables over the samples (wide enough for one-off set-up sites):
#
#   flat       self share: the function the sample landed in (CPU mode) or
#              the allocation's immediate caller outside the allocator
#              (--allocs mode);
#   inclusive  share of samples with the function anywhere on the stack,
#              walked by frame pointers.
#
# The flat table needs nothing from the binary. The inclusive table needs
# frame pointers: build with CXXFLAGS=-fno-omit-frame-pointer, e.g.
#
#   CXXFLAGS=-fno-omit-frame-pointer CARGO_TARGET_DIR=/tmp/fp \
#       python3 spinbench/run.py --workload spin_accuracy --seconds 2 --trace 0
#   scripts/profile.sh -- /tmp/fp/spinbench --workload spin_accuracy \
#       --seconds 10 --trace 0 --work /tmp/fp/work
#
# Symbols come from addr2line, or from `nm` symbol extents where there is no
# line info. Internal functions of stripped libraries show as
# `?? after SYM [lib]`: SYM is the nearest exported symbol below the address
# (`nm -D`), an approximate landmark rather than the function itself.
# Unlike a -pg build, the binary runs unmodified, so small hot functions are
# not distorted by instrumentation. Limits: the kernel tick caps the CPU rate
# (250 Hz on a HZ=250 kernel); a sample landing in a leaf function without a
# frame pointer (libc's memcpy) loses that leaf's caller from its inclusive
# stack; --allocs needs frame pointers to see past operator new; only the
# profiled process is sampled (children it forks keep the preload but write
# no samples).

set -euo pipefail

mode=cpu
out=""
while [ $# -gt 0 ]; do
    case "$1" in
        --allocs) mode=allocs; shift ;;
        --out) out="$2"; shift 2 ;;
        --) shift; break ;;
        -h|--help) sed -n '2,39p' "$0"; exit 0 ;;
        *) break ;;
    esac
done
if [ $# -eq 0 ]; then
    echo "usage: scripts/profile.sh [--allocs] [--out DIR] -- BINARY [ARGS...]" >&2
    exit 2
fi

if [ -z "${out}" ]; then
    out="$(mktemp -d)"
    trap 'rm -rf "${out}"' EXIT
fi
mkdir -p "${out}"

cat > "${out}/sampler.c" <<'EOF'
/* LD_PRELOAD sampler: SIGPROF (CPU) or every-Nth-malloc (allocs) stacks. */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 48
#define CPU_HZ 997      /* SIGPROF rate asked of the kernel (its tick caps it) */
#define ALLOC_EVERY 97  /* --allocs: record every ALLOC_EVERY-th malloc() */
typedef struct { uint64_t depth; uintptr_t pc[MAX_DEPTH]; } Sample;

static Sample* samples;
static uint64_t capacity;
static uint64_t next_sample;  /* atomic */
static uint64_t dropped;      /* atomic */
#ifdef PROFILE_ALLOCS
static const int allocs_mode = 1;
static uint64_t alloc_calls;  /* atomic */
#else
static const int allocs_mode = 0;
#endif
static int active;
static pid_t owner;

static __thread uintptr_t stack_lo __attribute__((tls_model("initial-exec")));
static __thread uintptr_t stack_hi __attribute__((tls_model("initial-exec")));
static __thread int in_sampler __attribute__((tls_model("initial-exec")));

static uintptr_t parse_hex(const char** p) {
    uintptr_t v = 0;
    for (;; ++*p) {
        const char c = **p;
        if (c >= '0' && c <= '9') v = v * 16 + (uintptr_t)(c - '0');
        else if (c >= 'a' && c <= 'f') v = v * 16 + (uintptr_t)(c - 'a' + 10);
        else return v;
    }
}

/* Bounds of the mapping holding `sp`, read with raw syscalls only (safe in
 * a signal handler and inside malloc); cached per thread. */
static void learn_stack(uintptr_t sp) {
    stack_lo = 1; stack_hi = 0;  /* "looked, found nothing": walks stop */
    const int fd = open("/proc/self/maps", O_RDONLY);
    if (fd < 0) return;
    char buf[4096]; size_t len = 0; ssize_t n;
    while ((n = read(fd, buf + len, sizeof buf - 1 - len)) > 0) {
        len += (size_t)n; buf[len] = 0;
        char* line = buf; char* nl;
        while ((nl = memchr(line, '\n', (size_t)(buf + len - line))) != NULL) {
            const char* p = line;
            const uintptr_t lo = parse_hex(&p); ++p;
            const uintptr_t hi = parse_hex(&p);
            if (sp >= lo && sp < hi) { stack_lo = lo; stack_hi = hi; close(fd); return; }
            line = nl + 1;
        }
        len = (size_t)(buf + len - line);
        memmove(buf, line, len);
    }
    close(fd);
}

static void record(uintptr_t pc, uintptr_t fp, uintptr_t sp) {
    const uint64_t slot = __atomic_fetch_add(&next_sample, 1, __ATOMIC_RELAXED);
    if (slot >= capacity) { __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED); return; }
    if (stack_hi == 0 && stack_lo == 0) learn_stack(sp);
    Sample* s = &samples[slot];
    uint64_t depth = 0;
    s->pc[depth++] = pc;
    /* Frame-pointer walk: [fp] = caller's fp, [fp + 8] = return address. */
    while (depth < MAX_DEPTH && fp >= sp && fp % sizeof(uintptr_t) == 0 &&
           fp >= stack_lo && fp + 2 * sizeof(uintptr_t) <= stack_hi) {
        const uintptr_t* frame = (const uintptr_t*)fp;
        const uintptr_t ret = frame[1];
        if (ret < 4096) break;
        s->pc[depth++] = ret;
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    s->depth = depth;
}

static void on_sigprof(int sig, siginfo_t* info, void* context) {
    (void)sig; (void)info;
    if (!active || in_sampler) return;
    const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
    record((uintptr_t)uc->uc_mcontext.gregs[REG_RIP], (uintptr_t)uc->uc_mcontext.gregs[REG_RBP],
           (uintptr_t)uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
    record((uintptr_t)uc->uc_mcontext.pc, (uintptr_t)uc->uc_mcontext.regs[29],
           (uintptr_t)uc->uc_mcontext.sp);
#else
    (void)uc;
#endif
}

#ifdef PROFILE_ALLOCS
/* Only --allocs builds interpose malloc, so CPU profiles carry no wrapper. */
extern void* __libc_malloc(size_t);

void* malloc(size_t size) {
    if (active && !in_sampler &&
        __atomic_fetch_add(&alloc_calls, 1, __ATOMIC_RELAXED) % ALLOC_EVERY == 0) {
        in_sampler = 1;
        const uintptr_t fp = (uintptr_t)__builtin_frame_address(0);
        record((uintptr_t)__builtin_return_address(0), ((const uintptr_t*)fp)[0], fp);
        in_sampler = 0;
    }
    return __libc_malloc(size);
}
#endif

static void write_all(int fd, const void* data, size_t len) {
    const char* p = data;
    while (len > 0) {
        const ssize_t n = write(fd, p, len);
        if (n <= 0) return;
        p += n; len -= (size_t)n;
    }
}

__attribute__((constructor)) static void sampler_start(void) {
    if (getenv("SPINSCOPE_PROFILE_DIR") == NULL) return;
    owner = getpid();
    capacity = 400000;
    samples = mmap(NULL, capacity * sizeof(Sample), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED) return;
    if (!allocs_mode) {
        struct sigaction sa;
        memset(&sa, 0, sizeof sa);
        sa.sa_sigaction = on_sigprof;
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigaction(SIGPROF, &sa, NULL);
        struct itimerval it;
        it.it_interval.tv_sec = 0;
        it.it_interval.tv_usec = 1000000 / CPU_HZ;
        it.it_value = it.it_interval;
        setitimer(ITIMER_PROF, &it, NULL);
    }
    active = 1;
}

__attribute__((destructor)) static void sampler_stop(void) {
    if (!active || getpid() != owner) return;
    active = 0;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    const char* dir = getenv("SPINSCOPE_PROFILE_DIR");
    if (dir == NULL) return;
    char path[4096];
    snprintf(path, sizeof path, "%s/samples.txt", dir);
    const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return;
    uint64_t n = next_sample < capacity ? next_sample : capacity;
    char line[64 + MAX_DEPTH * 20];
    int len = allocs_mode
                  ? snprintf(line, sizeof line, "# mode=allocs every=%d dropped=%llu\n",
                             ALLOC_EVERY, (unsigned long long)dropped)
                  : snprintf(line, sizeof line, "# mode=cpu dropped=%llu\n",
                             (unsigned long long)dropped);
    write_all(fd, line, (size_t)len);
    for (uint64_t i = 0; i < n; ++i) {
        len = 0;
        for (uint64_t d = 0; d < samples[i].depth; ++d) {
            len += snprintf(line + len, sizeof line - (size_t)len, d ? " %lx" : "%lx",
                            (unsigned long)samples[i].pc[d]);
        }
        line[len++] = '\n';
        write_all(fd, line, (size_t)len);
    }
    close(fd);
    snprintf(path, sizeof path, "%s/maps.txt", dir);
    const int out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int in = open("/proc/self/maps", O_RDONLY);
    char buf[4096];
    ssize_t r;
    while (in >= 0 && out >= 0 && (r = read(in, buf, sizeof buf)) > 0) write_all(out, buf, (size_t)r);
    if (in >= 0) close(in);
    if (out >= 0) close(out);
}
EOF

defines=""
if [ "${mode}" = allocs ]; then defines="-DPROFILE_ALLOCS"; fi
cc -O2 -fPIC -shared -fno-omit-frame-pointer ${defines} -o "${out}/sampler.so" "${out}/sampler.c"

set +e
SPINSCOPE_PROFILE_DIR="${out}" LD_PRELOAD="${out}/sampler.so" "$@" > "${out}/stdout.txt"
status=$?
set -e
if [ "${status}" -ne 0 ]; then
    echo "profile: $1 exited with status ${status} (its stdout is in ${out}/stdout.txt)" >&2
fi
if [ ! -s "${out}/samples.txt" ]; then
    echo "profile: no samples written (did the program exit through _exit or a signal?)" >&2
    exit 1
fi

python3 - "${out}" <<'EOF' | tee "${out}/report.txt"
import bisect
import collections
import subprocess
import sys

out = sys.argv[1]
TOP = 60  # rows per table

maps = []  # (start, end, file offset, path)
for line in open(f"{out}/maps.txt"):
    parts = line.split()
    if len(parts) < 6 or "x" not in parts[1]:
        continue
    lo, hi = (int(x, 16) for x in parts[0].split("-"))
    maps.append((lo, hi, int(parts[2], 16), parts[5]))
maps.sort()
starts = [m[0] for m in maps]

header = ""
mode = "cpu"
stacks = []
for line in open(f"{out}/samples.txt"):
    if line.startswith("#"):
        header = line[1:].strip()
        mode = dict(kv.split("=") for kv in header.split()).get("mode", "cpu")
        continue
    pcs = [int(x, 16) for x in line.split()]
    # Return addresses point after the call; step back into the call site.
    # A CPU sample's first address is the interrupted instruction itself.
    first = pcs[0] if mode == "cpu" else pcs[0] - 1
    stacks.append([first] + [pc - 1 for pc in pcs[1:]])

def module_of(addr):
    i = bisect.bisect_right(starts, addr) - 1
    if i >= 0 and addr < maps[i][1]:
        return maps[i]
    return None

def elf_is_exec(path):
    try:
        with open(path, "rb") as f:
            head = f.read(18)
        return head[:4] == b"\x7fELF" and int.from_bytes(head[16:18], "little") == 2
    except OSError:
        return False

def symbol_table(path):
    """(starts, ends, names) of a module's sized function symbols: its full
    symbol table, or only the exported ones when it is stripped."""
    syms = []
    for flags in (["-C", "-S"], ["-C", "-D", "-S"]):
        try:
            text = subprocess.run(["nm", *flags, "--defined-only", path], capture_output=True,
                                  text=True, check=False).stdout
        except OSError:
            break
        for line in text.splitlines():
            parts = line.split(maxsplit=3)
            if len(parts) == 4 and parts[2] in "TtWi":
                start = int(parts[0], 16)
                name = parts[3].split("@")[0]  # drop symbol versions (free@@GLIBC_2.2.5)
                syms.append((start, start + int(parts[1], 16), name))
        if syms:
            break
    syms.sort()
    return [s[0] for s in syms], [s[1] for s in syms], [s[2] for s in syms]

def export_table(path):
    """(starts, names) of a module's exported dynamic function symbols,
    sized or not: the landmarks for addresses no symbol extent covers."""
    try:
        text = subprocess.run(["nm", "-D", "--defined-only", path], capture_output=True,
                              text=True, check=False).stdout
    except OSError:
        return [], []
    syms = sorted({(int(p[0], 16), p[2].split("@")[0]) for p in
                   (line.split() for line in text.splitlines())
                   if len(p) == 3 and p[1] in "TtWi"})
    return [s[0] for s in syms], [s[1] for s in syms]

by_module = collections.defaultdict(set)
for stack in stacks:
    for addr in stack:
        m = module_of(addr)
        if m is not None:
            by_module[m[3]].add(addr)

names = {}
for path, addrs in by_module.items():
    m_of = {a: module_of(a) for a in addrs}
    absolute = elf_is_exec(path)
    addrs = sorted(addrs)
    rel = [a if absolute else a - m_of[a][0] + m_of[a][2] for a in addrs]
    short = path.rsplit("/", 1)[-1]
    try:
        proc = subprocess.run(["addr2line", "-f", "-C", "-e", path],
                              input="\n".join(hex(r) for r in rel), capture_output=True,
                              text=True, check=False)
        lines = proc.stdout.splitlines()
    except OSError:
        lines = []
    table = None
    exports = None
    for i, (a, r) in enumerate(zip(addrs, rel)):
        fn = lines[2 * i] if 2 * i + 1 < len(lines) else "??"
        if fn == "??" or lines[2 * i + 1].startswith("??"):
            # Without line info addr2line names the nearest preceding
            # symbol, however far away; trust only a symbol whose extent
            # covers the address.
            if table is None:
                table = symbol_table(path)
            j = bisect.bisect_right(table[0], r) - 1
            fn = table[2][j] if j >= 0 and r < table[1][j] else "??"
        if fn == "??":
            # Internal functions of a stripped library (memcpy/memset
            # variants, malloc internals) have no symbol of their own. Label
            # them with the nearest exported symbol below, which groups them
            # by the region of the library they live in. Approximate: the
            # label is a landmark, not the function that ran.
            if exports is None:
                exports = export_table(path)
            j = bisect.bisect_right(exports[0], r) - 1
            if j >= 0:
                fn = f"?? after {exports[1][j]}"
        names[a] = f"{fn}  [{short}]"

def strip_params(fn):
    """Drops parameter lists: 'ns::f(int) const' -> 'ns::f const'."""
    out, i = [], 0
    while i < len(fn):
        c = fn[i]
        if c == "(" and not fn.startswith("(anonymous", i) and not fn[:i].endswith("operator"):
            depth = 0
            while i < len(fn):
                depth += {"(": 1, ")": -1}.get(fn[i], 0)
                i += 1
                if depth == 0:
                    break
            continue
        out.append(c)
        i += 1
    return "".join(out)

def name(addr):
    return strip_params(names.get(addr, "[unknown]"))

total = len(stacks)
flat = collections.Counter()
incl = collections.Counter()
for stack in stacks:
    frames = [name(a) for a in stack]
    if mode == "allocs":
        # Attribute an allocation to its first caller outside the allocator
        # and the standard library (the code that asked for the memory).
        own = next((f for f in frames
                    if not f.startswith(("malloc", "operator new", "std::", "__gnu_cxx::",
                                         "void std::", "__libc"))
                    and not any(k in f for k in ("[libc.so", "[libstdc++", "[sampler.so"))),
                   frames[0])
        flat[own] += 1
    else:
        flat[frames[0]] += 1
    for f in set(frames):
        incl[f] += 1

def table(title, ranked, other, labels):
    print(f"\n{title}")
    print(f"  {labels[0]:>7} {labels[1]:>7} {'samples':>8}  function")
    for fn, n in ranked.most_common(TOP):
        print(f"  {100.0 * n / total:6.2f}% {100.0 * other[fn] / total:6.2f}% {n:8d}  {fn}")

unit = "allocations sampled" if mode == "allocs" else "CPU samples"
print(f"{total} {unit} ({header})")
table("flat profile", flat, incl, ("self%", "incl%"))
table("inclusive profile (frame pointers)", incl, flat, ("incl%", "self%"))
EOF
