#include "calibration.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hit::perfbench {
namespace {

constexpr int kNodes = 20000;
constexpr int kDegree = 8;
constexpr int kSources = 2;
constexpr std::uint64_t kInserts = 40000;

using Graph = std::vector<std::vector<std::pair<int, double>>>;

// xorshift64: a fixed stream, so every process builds the same graph.
const Graph& reference_graph() {
  static const Graph graph = [] {
    Graph g(kNodes);
    std::uint64_t x = 88172645463325252ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (auto& edges : g) {
      for (int k = 0; k < kDegree; ++k) {
        edges.emplace_back(static_cast<int>(next() % kNodes),
                           1.0 + static_cast<double>(next() % 100));
      }
    }
    return g;
  }();
  return graph;
}

// Keeps the kernel's results observable so the work cannot be elided.
volatile double g_sink = 0.0;

}  // namespace

double reference_kernel_s() {
  const Graph& g = reference_graph();  // built once, outside the timing
  const auto start = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (int src = 0; src < kSources; ++src) {
    std::vector<double> dist(kNodes, std::numeric_limits<double>::infinity());
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
    dist[src] = 0.0;
    frontier.emplace(0.0, src);
    while (!frontier.empty()) {
      const auto [d, u] = frontier.top();
      frontier.pop();
      if (d > dist[u]) continue;
      for (const auto& [v, w] : g[u]) {
        if (d + w < dist[v]) {
          dist[v] = d + w;
          frontier.emplace(dist[v], v);
        }
      }
    }
    acc += dist[kNodes - 1];
  }
  std::unordered_map<std::uint64_t, double> counts;
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    counts[(i * 0x9E3779B97F4A7C15ull) >> 40] += 1.0;
  }
  acc += static_cast<double>(counts.size());
  g_sink = g_sink + acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace hit::perfbench
