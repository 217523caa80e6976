#ifndef SEQFM_UTIL_ORDERED_MUTEX_H_
#define SEQFM_UTIL_ORDERED_MUTEX_H_

#include <mutex>
#include <vector>

#include "util/logging.h"
#include "util/thread_annotations.h"

namespace seqfm {
namespace util {

/// \brief Lock-rank checking mutex: deadlock-by-construction prevention.
///
/// Every OrderedMutex carries a name and an integer rank; a thread may only
/// acquire ranks in strictly increasing order. A violation check-fails
/// immediately, naming both locks — so a lock-order inversion (the raw
/// material of an ABBA deadlock) dies deterministically in any test that
/// executes the path once, instead of deadlocking one run in a thousand
/// under the right interleaving. Re-entrant acquisition of the same rank
/// (including the same mutex) fails the same way.
///
/// The held-lock stack is thread-local and at most a few entries deep, so
/// the check is a handful of compares per acquisition — cheap enough to
/// keep on in release builds (this codebase never defines NDEBUG).
///
/// Works with util::CondVar: condition_variable_any drives lock()/unlock()
/// directly, so the bookkeeping stays correct across a wait's internal
/// unlock/relock.
namespace lock_rank {

/// The process-wide acquisition order, outermost (lowest) to innermost
/// (highest). One source of truth — mirrored in README "Correctness
/// tooling". Observed nestings this order legalizes:
///   RpcServer::Shutdown:   shutdown_mu_  -> BatchServer::mu_ (drain)
///   BatchServer dispatch:  serve_mu_     -> mu_ (wave pop, stats)
///   ServeWave callbacks:   serve_mu_     -> RpcServer::mu_ (completions)
///                          serve_mu_     -> mu_ (re-submit from callback)
///   ServeWave scoring:     serve_mu_     -> ContextCache::mu_ (LRU)
/// The thread pool's internal locks stay unranked plain util::Mutex: they
/// are leaf locks by construction (never held across user callbacks).
///
/// Coordinator locks sit BELOW the whole single-replica serving stack
/// (< 100, per the rank reservation in ROADMAP.md): a coordinator fans out
/// while holding its own state lock, and each replica channel's mutex is
/// taken by the fan-out workers — both orders must legalize nesting into
/// an in-process replica's kRpcShutdown and below. The health lock sits
/// between them: plan building nests mu_ -> health_mu_ (circuit state is
/// consulted while routing), and outcome reporting takes health_mu_ alone
/// after the backend call returned — never across one, so a stuck replica
/// cannot wedge health updates for the rest of the fleet.
constexpr int kCoordinator = 40;        // serve::Coordinator::mu_
constexpr int kCoordinatorHealth = 45;  // serve::Coordinator::health_mu_
constexpr int kReplicaChannel = 50;     // serve::RemoteReplicaBackend::mu_
constexpr int kRpcShutdown = 100;     // serve::RpcServer::shutdown_mu_
constexpr int kBatchServe = 200;      // serve::BatchServer::serve_mu_
constexpr int kBatchQueue = 300;      // serve::BatchServer::mu_
constexpr int kRpcCompletions = 400;  // serve::RpcServer::mu_
constexpr int kContextCache = 500;    // serve::ContextCache::mu_

}  // namespace lock_rank

class SEQFM_CAPABILITY("mutex") OrderedMutex {
 public:
  OrderedMutex(const char* name, int rank) : name_(name), rank_(rank) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() SEQFM_ACQUIRE() {
    CheckRankAgainstHeld();
    mu_.lock();
    Held().push_back(this);
  }

  void unlock() SEQFM_RELEASE() {
    // Search from the back: release order need not mirror acquisition
    // order (e.g. a scoped lock released while an outer one stays held).
    std::vector<const OrderedMutex*>& held = Held();
    bool found = false;
    for (size_t i = held.size(); i-- > 0;) {
      if (held[i] == this) {
        held.erase(held.begin() + static_cast<ptrdiff_t>(i));
        found = true;
        break;
      }
    }
    SEQFM_CHECK(found) << "OrderedMutex: releasing '" << name_
                       << "' which this thread does not hold";
    mu_.unlock();
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  static std::vector<const OrderedMutex*>& Held() {
    static thread_local std::vector<const OrderedMutex*> held;
    return held;
  }

  void CheckRankAgainstHeld() const {
    for (const OrderedMutex* h : Held()) {
      SEQFM_CHECK(h->rank_ < rank_)
          << "OrderedMutex: lock-rank inversion: acquiring '" << name_
          << "' (rank " << rank_ << ") while holding '" << h->name_
          << "' (rank " << h->rank_
          << "); acquisition order must follow util::lock_rank";
    }
  }

  std::mutex mu_;
  const char* const name_;
  const int rank_;
};

/// RAII lock for OrderedMutex, scoped-capability annotated like MutexLock.
class SEQFM_SCOPED_CAPABILITY OrderedMutexLock {
 public:
  explicit OrderedMutexLock(OrderedMutex& mu) SEQFM_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~OrderedMutexLock() SEQFM_RELEASE() { mu_.unlock(); }
  OrderedMutexLock(const OrderedMutexLock&) = delete;
  OrderedMutexLock& operator=(const OrderedMutexLock&) = delete;

 private:
  OrderedMutex& mu_;
};

}  // namespace util
}  // namespace seqfm

#endif  // SEQFM_UTIL_ORDERED_MUTEX_H_
