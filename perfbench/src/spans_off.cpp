// Untraced build: no interposition, no clock reads.

#include "spans.hpp"

namespace perfbench::spans {

bool enabled() { return false; }
void open_root(const char*, std::int64_t) {}
void close_root() {}
Totals totals() { return {}; }
void write(const std::string&) {}

}  // namespace perfbench::spans
