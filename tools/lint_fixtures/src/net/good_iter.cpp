// Fixture: MUST stay clean for unordered-iteration — vector traversal,
// the find()/end() lookup idiom, and a waived hash-order fold.
#include <unordered_map>
#include <vector>

namespace fixture {

class GoodIter {
 public:
  double sum() const {
    double total = 0.0;
    for (double v : values_) total += v;  // ordered container: fine
    return total;
  }

  bool has(int key) const {
    // Lookup idiom: .end() without iteration must not fire.
    return index_.find(key) != index_.end();
  }

  int count() const {
    int n = 0;
    // lint:allow(unordered-iteration): commutative integer fold
    for (const auto& kv : index_) n += kv.second;
    return n;
  }

 private:
  std::vector<double> values_;
  std::unordered_map<int, int> index_;
};

}  // namespace fixture
