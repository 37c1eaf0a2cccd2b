// Fixture: MUST fire stale-waiver twice — an allow() whose offending
// code was refactored away, and an allow() naming a misspelled rule.
// good_iter.cpp is the negative: its waiver suppresses a real finding
// and must NOT be reported stale.
#include <vector>

namespace fixture {

class StaleWaivers {
 public:
  double sum() const {
    double total = 0.0;
    // lint:allow(unordered-iteration): finding: container is a vector
    // now, so this waiver suppresses nothing
    for (double v : values_) total += v;
    return total;
  }

  std::size_t size() const {
    // lint:allow(unordered-iterations): finding: misspelled rule name
    return values_.size();
  }

 private:
  std::vector<double> values_;
};

}  // namespace fixture
