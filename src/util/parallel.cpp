#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace tcgrid::util {

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads, std::size_t chunk) {
  if (chunk == 0) chunk = 1;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t grabs = (n + chunk - 1) / chunk;
  std::atomic<std::size_t> next{0};
  auto pull = [&] {
    for (;;) {
      const std::size_t g = next.fetch_add(1);
      if (g >= grabs) return;
      const std::size_t lo = g * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }
  };
  // jthreads join when the vector goes out of scope, on every path out.
  std::vector<std::jthread> workers;
  workers.reserve(std::min(threads, grabs));
  for (std::size_t w = 0; w < std::min(threads, grabs); ++w) workers.emplace_back(pull);
}

}  // namespace tcgrid::util
