#include "ecohmem/common/lockdep.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace ecohmem::common::lockdep {

namespace {

/// One entry of the per-thread held-lock list.
struct Held {
  const void* mutex = nullptr;
  const char* name = "?";
  LockSite site;
};

thread_local std::vector<Held> t_held;

/// -1 = environment not consulted yet, 0 = off, 1 = on.
std::atomic<int> g_mode{-1};

std::atomic<Handler> g_handler{nullptr};

[[noreturn]] void default_handler_abort(const Violation& violation) {
  std::fprintf(stderr, "ecohmem lockdep: %s\n", violation.message.c_str());
  std::abort();
}

std::string site_str(const LockSite& site) {
  return std::string(site.file) + ":" + std::to_string(site.line);
}

void report(Violation violation) {
  const Handler handler = g_handler.load(std::memory_order_acquire);
  if (handler != nullptr) {
    handler(violation);
  } else {
    default_handler_abort(violation);
  }
}

}  // namespace

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kLeafNesting: return "leaf-nesting";
    case ViolationKind::kNotHeld: return "not-held";
  }
  return "?";
}

bool enabled() {
  int mode = g_mode.load(std::memory_order_relaxed);
  if (mode < 0) {
    const char* env = std::getenv("ECOHMEM_LOCKDEP");
    const int from_env = (env != nullptr && env[0] == '1') ? 1 : 0;
    int expected = -1;
    g_mode.compare_exchange_strong(expected, from_env, std::memory_order_relaxed);
    mode = g_mode.load(std::memory_order_relaxed);
  }
  return mode == 1;
}

void set_enabled_for_testing(bool on) {
  g_mode.store(on ? 1 : 0, std::memory_order_relaxed);
}

Handler set_violation_handler(Handler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

void reset_for_testing() { t_held.clear(); }

std::size_t held_count() { return t_held.size(); }

void on_acquire(const void* mutex, const char* name, const std::source_location& where) {
  const LockSite site{where.file_name(), where.line()};

  // Leaf rule: every wrapped lock is a leaf, so any held lock is a
  // violation; cite the first one.
  if (!t_held.empty()) {
    const Held& held = t_held.front();
    Violation v;
    v.kind = ViolationKind::kLeafNesting;
    v.acquiring = name;
    v.held = held.name;
    v.acquiring_site = site;
    v.held_site = held.site;
    v.message = std::string(held.mutex == mutex ? "recursive acquisition"
                                                : "leaf-nesting violation") +
                ": acquiring '" + name + "' at " + site_str(site) +
                " while holding leaf lock '" + held.name + "' acquired at " +
                site_str(held.site) +
                "; leaf locks admit no nested acquisition (docs/threading.md)";
    report(std::move(v));
  }

  t_held.push_back(Held{mutex, name, site});
}

void on_release(const void* mutex) {
  // std::mutex permits non-LIFO unlock orders, so search from the top.
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->mutex == mutex) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
  // Unlock of a lock acquired before the validator was enabled: ignore.
}

void on_assert_held(const void* mutex, const char* name) {
  for (const auto& held : t_held) {
    if (held.mutex == mutex) return;
  }
  Violation v;
  v.kind = ViolationKind::kNotHeld;
  v.acquiring = name;
  v.held = "";
  v.message = "assert_held: '" + std::string(name) + "' is not held by this thread";
  report(std::move(v));
}

}  // namespace ecohmem::common::lockdep
