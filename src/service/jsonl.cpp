#include "service/jsonl.hpp"

#include <istream>
#include <ostream>
#include <streambuf>

#include "verify/verify.hpp"

namespace nat::service {

bool is_jsonl_record(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first != std::string::npos && line[first] != '#';
}

std::string line_limits_error() {
  return "input line exceeds the " + std::to_string(kMaxJsonlLineBytes) +
         "-byte JSONL line cap";
}

bool read_jsonl_record(std::istream& in, std::string* line, bool* over_cap) {
  *over_cap = false;
  for (;;) {
    // std::getline semantics, except that bytes past the cap are
    // consumed without being stored.
    const std::istream::sentry ok(in, /*noskipws=*/true);
    if (!ok) return false;
    std::streambuf* buf = in.rdbuf();
    line->clear();
    bool extracted = false;
    bool over = false;
    for (;;) {
      const int c = buf->sbumpc();
      if (c == std::char_traits<char>::eof()) {
        in.setstate(std::ios::eofbit);
        break;
      }
      extracted = true;
      if (c == '\n') break;
      if (line->size() < kMaxJsonlLineBytes) {
        line->push_back(static_cast<char>(c));
      } else {
        over = true;
      }
    }
    if (!extracted) {
      in.setstate(std::ios::failbit);
      return false;
    }
    if (over) {
      line->clear();
      *over_cap = true;
      return true;
    }
    if (!is_jsonl_record(*line)) continue;
    if (!line->empty() && line->back() == '\r') line->pop_back();
    return true;
  }
}

void write_jsonl_record(std::ostream& out, const obs::Json& record) {
  write_jsonl_record(out, record.dump());
}

void write_jsonl_record(std::ostream& out, const std::string& dumped) {
  out << dumped << '\n' << std::flush;
}

std::string classify_solver_failure(const std::string& what) {
  return what.find("instance is infeasible") != std::string::npos
             ? "infeasible"
             : verify::classify_failure(what);
}

std::string classify_cancelled(const std::string& what) {
  return what.find("deadline") != std::string::npos ? "timeout" : "cancelled";
}

}  // namespace nat::service
