// The calibrated stopwatch (see bench.h).
//
// On a shared host the speed a thread gets drifts by tens of percent over
// seconds to minutes, and a thread's own CPU time drifts with it. On a
// 4-vCPU Xeon VM the drift left a chain of multiplies untouched but slowed
// a kernel of unpredictable indirect calls and the simulator alike, so
// that kernel is the yardstick. While the stopwatch runs, a CPU-time
// interval timer (SIGPROF, one scheduler tick apart) interrupts the thread
// and times the kernel. The measured CPU time, less the time spent in it,
// is scaled by kRefStepNs / (the kernel's mean ns per step over the span):
// seconds as they would read on a host where one kernel step takes
// kRefStepNs.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sys/time.h>

#include "bench.h"

namespace perfbench {
namespace {

/// Steps per calibration sample (~40 us on a 2 GHz Xeon).
constexpr int kSampleSteps = 4096;
/// Reference speed the stopwatch scales to.
constexpr double kRefStepNs = 10.0;
/// Requested sampling period; the kernel rounds it up to one tick.
constexpr long kPeriodUs = 1000;

using Step = std::uint64_t (*)(std::uint64_t);
std::uint64_t step0(std::uint64_t x) { return x * 0x9E3779B97F4A7C15ull + 1; }
std::uint64_t step1(std::uint64_t x) { return (x >> 7) ^ (x << 9) ^ 3; }
std::uint64_t step2(std::uint64_t x) { return x + (x >> 3) + 5; }
std::uint64_t step3(std::uint64_t x) { return (x ^ 0xabcdef) * 31; }
/// volatile: the calls must stay indirect.
Step volatile g_steps[4] = {step0, step1, step2, step3};

// Written by the handler, which runs on the timed thread: lock-free
// atomics are what a signal handler may touch.
volatile std::sig_atomic_t g_armed = 0;
std::atomic<double> g_sample_s{0};
std::atomic<long> g_samples{0};
std::atomic<std::uint64_t> g_sink{0};

double clock_s(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void on_sample(int) {
  if (g_armed == 0) return;
  const double t0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
  std::uint64_t x = 1;
  for (int i = 0; i < kSampleSteps; ++i) {
    x = g_steps[x & 3](x);
    if ((x & 0x30) == 0x10) x += static_cast<std::uint64_t>(i);
  }
  g_sink.store(x, std::memory_order_relaxed);
  g_sample_s.store(g_sample_s.load(std::memory_order_relaxed) +
                       (clock_s(CLOCK_THREAD_CPUTIME_ID) - t0),
                   std::memory_order_relaxed);
  g_samples.fetch_add(1, std::memory_order_relaxed);
}

bool set_timer(long period_us) {
  itimerval it{};
  it.it_interval.tv_usec = period_us;
  it.it_value.tv_usec = period_us;
  return setitimer(ITIMER_PROF, &it, nullptr) == 0;
}

double g_cpu0 = 0;
/// Every sample of the process so far, for spans too short for their own.
double g_all_sample_s = 0;
long g_all_samples = 0;

double step_ns(double sample_s, long samples) {
  return sample_s * 1e9 / (static_cast<double>(samples) * kSampleSteps);
}

}  // namespace

void stopwatch_start() {
  static const bool installed = [] {
    struct sigaction sa {};
    sa.sa_handler = on_sample;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    return sigaction(SIGPROF, &sa, nullptr) == 0;
  }();
  g_sample_s.store(0, std::memory_order_relaxed);
  g_samples.store(0, std::memory_order_relaxed);
  g_cpu0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
  g_armed = 1;
  if (!installed || !set_timer(kPeriodUs)) {
    // Without samples every span would silently be raw CPU time.
    std::fprintf(stderr, "perfbench: cannot arm the SIGPROF sampler\n");
    std::exit(2);
  }
}

Span stopwatch_stop() {
  g_armed = 0;
  (void)set_timer(0);  // a late tick finds g_armed clear
  const double cpu = clock_s(CLOCK_THREAD_CPUTIME_ID) - g_cpu0;
  const double sample_s = g_sample_s.load(std::memory_order_relaxed);
  const long samples = g_samples.load(std::memory_order_relaxed);
  Span s;
  s.cpu_s = cpu;
  g_all_sample_s += sample_s;
  g_all_samples += samples;
  const double work = cpu - sample_s;
  if (samples > 0) {
    s.calibrated_s = work * kRefStepNs / step_ns(sample_s, samples);
  } else if (g_all_samples > 0) {
    // Shorter than one tick: scale by the process's speed so far.
    s.calibrated_s = work * kRefStepNs / step_ns(g_all_sample_s, g_all_samples);
  } else {
    s.calibrated_s = work;
  }
  return s;
}

}  // namespace perfbench
