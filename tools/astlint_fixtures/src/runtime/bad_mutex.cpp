// Fixture: MUST fire raw-mutex twice — src/runtime is not a deterministic
// layer, but raw primitives are banned everywhere under src/ because clang
// Thread Safety Analysis cannot see through them.
#include <condition_variable>
#include <mutex>

namespace fixture {

class BadMutex {
 private:
  std::mutex mu_;               // finding
  std::condition_variable cv_;  // finding
};

}  // namespace fixture
