// Fixture: MUST stay clean — include directives that sit inside comments
// are not includes, so neither may fire layer-violation under the fixture
// DAG (net depends only on util):
// #include "traffic/shaper.hpp"
/*
#include "traffic/shaper.hpp"
*/
#include "util/sink.hpp"  /* #include "traffic/shaper.hpp" */

namespace fixture {

int unused() { return 0; }

}  // namespace fixture
