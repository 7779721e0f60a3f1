#include "ref_kernel.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 10;  // 8 KiB
constexpr std::size_t kLiveEvents = 4096;
constexpr std::size_t kOps = 20000;
constexpr int kReadsPerOp = 6;

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

volatile std::uint64_t kernel_sink = 0;

double run_ref_kernel(std::uint64_t* checksum) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();

  std::uint64_t rng = 0x5EEDULL;
  std::vector<std::uint64_t> table(kTableWords);
  for (auto& w : table) w = splitmix(rng);

  using Event = std::pair<std::uint64_t, std::uint64_t>;  // (time, handle)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_set<std::uint64_t> live;
  live.reserve(2 * kLiveEvents);
  std::uint64_t next_handle = 0;
  for (std::size_t i = 0; i < kLiveEvents; ++i) {
    heap.emplace(splitmix(rng) & 0xFFFFF, next_handle);
    live.insert(next_handle++);
  }

  std::uint64_t acc = 0;
  for (std::size_t op = 0; op < kOps; ++op) {
    const auto [t, handle] = heap.top();
    heap.pop();
    live.erase(handle);
    // The capture outgrows std::function's small buffer, like the
    // simulator's event lambdas, so each op allocates.
    const std::array<std::uint64_t, 3> seed{handle, t, splitmix(rng)};
    const std::function<void()> fire = [&table, &acc, seed] {
      std::uint64_t idx = seed[0] ^ seed[2];
      for (int r = 0; r < kReadsPerOp; ++r) {
        std::uint64_t& w = table[idx & (kTableWords - 1)];
        idx = w ^ seed[1];  // dependent chain: latency-bound, like pointer chasing
        w += acc | 1;
      }
      acc += idx;
    };
    fire();
    heap.emplace(t + 1 + (splitmix(rng) & 0x3FF), next_handle);
    live.insert(next_handle++);
  }

  const auto t1 = Clock::now();
  if (checksum != nullptr) *checksum = acc ^ live.size() ^ heap.top().first;
  return std::chrono::duration<double>(t1 - t0).count();
}

double time_ref_kernel() {
  std::array<double, 3> t{};
  std::uint64_t sink = 0;
  for (double& x : t) {
    std::uint64_t c = 0;
    x = run_ref_kernel(&c);
    sink ^= c;
  }
  // The checksum is the same every run; storing it through a volatile keeps
  // the optimizer from discarding the kernel's work.
  kernel_sink = sink;
  std::sort(t.begin(), t.end());
  return t[1];
}

}  // namespace perfbench
