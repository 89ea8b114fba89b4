#include "trace/compact.hpp"

#include <unordered_map>

namespace tir::trace {

namespace {

// Content hash (pid excluded: programs are per-process anyway).
std::size_t hash_action(const Action& a) {
  std::size_t h = static_cast<std::size_t>(a.type) * 1000003u;
  h ^= std::hash<int>{}(a.partner) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= std::hash<double>{}(a.volume) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= std::hash<double>{}(a.volume2) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= std::hash<int>{}(a.comm_size) + 0x9e3779b9 + (h << 6) + (h >> 2);
  return h;
}

// How many times the block [i, i+w) repeats back to back starting at i.
std::size_t count_repeats(const std::vector<Action>& actions, std::size_t i,
                          std::size_t w) {
  std::size_t k = 1;
  while (i + (k + 1) * w <= actions.size()) {
    bool equal = true;
    for (std::size_t j = 0; j < w; ++j) {
      if (!(actions[i + j] == actions[i + k * w + j])) {
        equal = false;
        break;
      }
    }
    if (!equal) break;
    ++k;
  }
  return k;
}

}  // namespace

CompactProgram compact_actions(const std::vector<Action>& actions,
                               std::size_t max_period) {
  const std::size_t n = actions.size();
  // next_same[i]: smallest j > i with actions[j] == actions[i] (candidate
  // loop periods are distances along this chain).
  std::vector<std::size_t> next_same(n, n);
  {
    std::unordered_map<std::size_t, std::size_t> last_seen;
    for (std::size_t i = n; i-- > 0;) {
      const std::size_t h = hash_action(actions[i]);
      const auto it = last_seen.find(h);
      if (it != last_seen.end() && actions[it->second] == actions[i])
        next_same[i] = it->second;
      last_seen[h] = i;
    }
  }

  CompactProgram program;
  std::vector<Action> literal;
  const auto flush_literal = [&] {
    if (!literal.empty()) {
      program.push_back(LoopBlock{1, std::move(literal)});
      literal.clear();
    }
  };

  std::size_t i = 0;
  while (i < n) {
    // Probe up to four candidate periods from the next-occurrence chain.
    std::size_t best_w = 0, best_k = 0, best_cover = 0;
    std::size_t probe = next_same[i];
    for (int c = 0; c < 4 && probe < n; ++c, probe = next_same[probe]) {
      const std::size_t w = probe - i;
      if (w == 0 || w > max_period) break;
      const std::size_t k = count_repeats(actions, i, w);
      const std::size_t cover = (k - 1) * w;
      if (k >= 2 && cover > best_cover) {
        best_w = w;
        best_k = k;
        best_cover = cover;
      }
    }
    // A loop only pays when it hides a meaningful amount of actions.
    if (best_k >= 2 && best_cover >= 4) {
      flush_literal();
      LoopBlock block;
      block.count = static_cast<std::uint32_t>(best_k);
      block.body.assign(actions.begin() + static_cast<std::ptrdiff_t>(i),
                        actions.begin() + static_cast<std::ptrdiff_t>(i + best_w));
      program.push_back(std::move(block));
      i += best_k * best_w;
    } else {
      literal.push_back(actions[i]);
      ++i;
    }
  }
  flush_literal();
  return program;
}

std::vector<Action> expand(const CompactProgram& program) {
  std::vector<Action> out;
  out.reserve(static_cast<std::size_t>(expanded_size(program)));
  for (const LoopBlock& block : program)
    for (std::uint32_t r = 0; r < block.count; ++r)
      out.insert(out.end(), block.body.begin(), block.body.end());
  return out;
}

std::uint64_t expanded_size(const CompactProgram& program) {
  std::uint64_t total = 0;
  for (const LoopBlock& block : program)
    total += static_cast<std::uint64_t>(block.count) * block.body.size();
  return total;
}

}  // namespace tir::trace
