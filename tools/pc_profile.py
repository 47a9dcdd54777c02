#!/usr/bin/env python3
"""A sampling profile of one command, without perf.

    python3 tools/pc_profile.py [--lines FUNC] -- CMD [ARG...]

Compiles a small LD_PRELOAD sampler with `cc` and runs CMD under it.  The
sampler arms a CLOCK_MONOTONIC timer that raises SIGPROF every 100
microseconds and records the program counter each signal interrupts;
when CMD exits normally it writes those PCs and its
/proc/self/maps.  It takes LD_PRELOAD out of CMD's environment as it
starts, so only CMD itself is sampled, not the programs it runs.

The PCs are then symbolized with `addr2line -f -i -C`, each folded into
the outermost function of its inline chain (the function the code was
inlined into, the one a call would have left), and the report prints the
top 20 functions by share of samples.  With --lines FUNC it also prints the
top 20 source lines of the functions whose name contains FUNC, each line
being one of FUNC's own (the call site, for code inlined into it).
Code without line information, such as a stripped libc, is named only
by an exported symbol whose extent covers it: addr2line would name it by
the nearest symbol before it, however far away.  Other samples there
count as `?? [library]`.

Symbols need the binary's debug information (the default RelWithDebInfo
build has it).  A sanitizer build (-DPOLARIS_SANITIZE=ON) cannot be
profiled: its runtime must come first in the library list, and the
preloaded sampler would precede it.  CMD's output and exit code pass
through; the report follows CMD's output on stdout.
"""
import argparse
import array
import bisect
import collections
import functools
import os
import subprocess
import sys
import tempfile

TOP = 20  # functions, and lines, each report lists

SAMPLER = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxSamples = 1 << 22, kIntervalUs = 100 };
static unsigned long pcs[kMaxSamples];
static unsigned long count;
static timer_t timer;
static int armed;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig, (void)info;
  const mcontext_t* m = &((ucontext_t*)context)->uc_mcontext;
#if defined(__x86_64__)
  unsigned long pc = m->gregs[REG_RIP];
#elif defined(__aarch64__)
  unsigned long pc = m->pc;
#else
#error "pc_profile: no PC register for this architecture"
#endif
  unsigned long n = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
  if (n < kMaxSamples) pcs[n] = pc;
}

__attribute__((constructor)) static void start(void) {
  unsetenv("LD_PRELOAD");  /* sample this process, not its children */
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent ev;
  memset(&ev, 0, sizeof ev);
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) return;
  struct itimerspec t = {{0, kIntervalUs * 1000}, {0, kIntervalUs * 1000}};
  armed = timer_settime(timer, 0, &t, NULL) == 0;
}

__attribute__((destructor)) static void finish(void) {
  const char* out = getenv("PC_PROFILE_OUT");
  if (!armed || out == NULL) return;
  timer_delete(timer);
  char path[4096];
  snprintf(path, sizeof path, "%s.%d.pcs", out, (int)getpid());
  FILE* f = fopen(path, "wb");
  unsigned long n = count < kMaxSamples ? count : kMaxSamples;
  if (f) fwrite(pcs, sizeof pcs[0], n, f), fclose(f);
  snprintf(path, sizeof path, "%s.%d.maps", out, (int)getpid());
  FILE* in = fopen("/proc/self/maps", "r");
  f = fopen(path, "w");
  char buf[4096];
  size_t got;
  while (in && f && (got = fread(buf, 1, sizeof buf, in)) > 0)
    fwrite(buf, 1, got, f);
  if (in) fclose(in);
  if (f) fclose(f);
}
"""


def build_sampler(workdir):
    source = os.path.join(workdir, "sampler.c")
    library = os.path.join(workdir, "sampler.so")
    with open(source, "w") as f:
        f.write(SAMPLER)
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", library, source,
                    "-lrt"], check=True)
    return library


def read_maps(path):
    """The executable file mappings: (start, end, offset, file)."""
    maps = []
    with open(path) as f:
        for line in f:
            fields = line.split(maxsplit=5)
            if len(fields) < 6 or "x" not in fields[1]:
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, int(fields[2], 16), fields[5].strip()))
    return maps


def load_bases(path):
    """Each mapped file's load base: where its offset 0 is mapped."""
    bases = {}
    with open(path) as f:
        for line in f:
            fields = line.split(maxsplit=5)
            if len(fields) == 6 and int(fields[2], 16) == 0:
                start = int(fields[0].split("-")[0], 16)
                name = fields[5].strip()
                bases[name] = min(start, bases.get(name, start))
    return bases


@functools.lru_cache(maxsize=None)
def is_fixed_address(file):
    """True for an ET_EXEC ELF file, whose addresses are absolute."""
    try:
        with open(file, "rb") as f:
            header = f.read(18)
    except OSError:
        return False
    return header[:4] == b"\x7fELF" and int.from_bytes(header[16:18],
                                                       "little") == 2


def symbolize(file, addresses):
    """{address: [(function, file:line), ...]}, innermost frame first."""
    if not addresses:
        return {}
    text = "".join("%x\n" % a for a in addresses)
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", file],
                         input=text, capture_output=True, text=True).stdout
    frames = {}
    current = None
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            frames[current] = []
            i += 1
        elif current is not None and i + 1 < len(lines):
            line = lines[i + 1].split(" (discriminator")[0]
            frames[current].append((lines[i], line))
            i += 2
        else:
            i += 1
    return frames


@functools.lru_cache(maxsize=None)
def exported_symbols(file):
    """([start], [(end, name)]) of the file's sized dynamic symbols, by start."""
    out = subprocess.run(["nm", "-D", "-C", "-S", "--defined-only", file],
                         capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        fields = line.split(maxsplit=3)
        if len(fields) == 4 and fields[2] in "TtWw":
            start = int(fields[0], 16)
            symbols.append((start, start + int(fields[1], 16),
                            fields[3].split("@")[0]))
    symbols.sort()
    return [s[0] for s in symbols], [s[1:] for s in symbols]


def exported_name(file, address):
    """The exported symbol whose extent covers `address`, or None."""
    starts, rest = exported_symbols(file)
    i = bisect.bisect_right(starts, address) - 1
    return rest[i][1] if i >= 0 and address < rest[i][0] else None


def profile(pcs, maps_path):
    """[(function, line)] for each sample, folded to the outermost frame."""
    maps = read_maps(maps_path)
    bases = load_bases(maps_path)
    by_file = collections.defaultdict(set)
    located = []
    for pc in pcs:
        hit = next((m for m in maps if m[0] <= pc < m[1]), None)
        if hit is None:
            located.append((None, pc))
            continue
        file = hit[3]
        address = pc if is_fixed_address(file) else \
            pc - bases.get(file, hit[0] - hit[2])
        by_file[file].add(address)
        located.append((file, address))
    frames = {file: symbolize(file, sorted(addresses))
              for file, addresses in by_file.items()
              if os.path.exists(file)}
    samples = []
    for file, address in located:
        chain = frames.get(file, {}).get(address) if file else None
        name = chain[-1][0] if chain else "??"
        if name != "??" and chain[-1][1].startswith("??"):
            name = exported_name(file, address) or "??"
        if name == "??":
            where = "[%s]" % os.path.basename(file) if file else "[unknown]"
            samples.append(("?? " + where, "??"))
        else:
            samples.append((name, chain[-1][1]))
    return samples


def print_top(title, counter, total):
    print(title)
    print("  share  samples  name")
    for name, n in counter.most_common(TOP):
        shown = name if len(name) <= 110 else name[:107] + "..."
        print("%6.1f%%  %7d  %s" % (100.0 * n / total, n, shown))


def main():
    ap = argparse.ArgumentParser(
        description="Sampling profile of one command without perf.")
    ap.add_argument("--lines", metavar="FUNC",
                    help="also list the top source lines of FUNC")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="-- CMD [ARG...]")
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no command to profile (give it after --)")

    with tempfile.TemporaryDirectory(prefix="pc_profile.") as workdir:
        library = build_sampler(workdir)
        out = os.path.join(workdir, "profile")
        env = dict(os.environ, LD_PRELOAD=library, PC_PROFILE_OUT=out)
        proc = subprocess.Popen(command, env=env)
        code = proc.wait()
        pcs_path = "%s.%d.pcs" % (out, proc.pid)
        maps_path = "%s.%d.maps" % (out, proc.pid)
        if not os.path.exists(pcs_path):
            print("pc_profile: %s wrote no samples (exit %d; it must end "
                  "through exit, not a signal or _exit)" % (command[0], code),
                  file=sys.stderr)
            return code or 1
        pcs = array.array("L")
        with open(pcs_path, "rb") as f:
            pcs.frombytes(f.read())
        samples = profile(pcs, maps_path)

    total = len(samples)
    print("pc_profile: %d samples every 100 us of %s (exit %d)" %
          (total, " ".join(command), code))
    if total == 0:
        return code
    print_top("functions (inlined code counted in the function it is "
              "inlined into):",
              collections.Counter(f for f, _ in samples), total)
    if args.lines:
        lines = collections.Counter(line for f, line in samples
                                    if args.lines in f)
        in_func = sum(lines.values())
        print()
        print_top("lines of functions matching '%s' (%d samples):" %
                  (args.lines, in_func), lines, total)
    return code


if __name__ == "__main__":
    sys.exit(main())
