#include "exec/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

namespace glocks::exec {

unsigned default_jobs() {
  if (const char* env = std::getenv("GLOCKS_JOBS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ParallelFor::operator()(
    std::size_t count, const std::function<void(std::size_t)>& body) const {
  if (count == 0) return;

  if (jobs_ <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  const unsigned n =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
  std::atomic<std::size_t> next{0};
  // One slot per index; after the join the lowest-index failure wins, so
  // the surfaced error does not depend on thread scheduling.
  std::vector<std::exception_ptr> errors(count);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          body(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace glocks::exec
