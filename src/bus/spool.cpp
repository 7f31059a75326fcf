#include "bus/spool.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/errors.hpp"

namespace stampede::bus::spool {

namespace {

bool parse_seq(std::string_view text, std::uint64_t& seq) {
  if (text.empty()) return false;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, seq);
  return ec == std::errc{} && ptr == end;
}

/// Takes the next space-delimited token (no quoting) off `rest`.
std::string_view take_token(std::string_view& rest) {
  const std::size_t space = rest.find(' ');
  std::string_view token = rest.substr(0, space);
  rest.remove_prefix(space == std::string_view::npos ? rest.size()
                                                     : space + 1);
  return token;
}

}  // namespace

std::string encode_field(std::string_view value) {
  bool needs_quotes = value.empty();
  for (const char c : value) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0 || c == '=' ||
        c == '"' || c == '\\') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return std::string{value};
  std::string out;
  out.reserve(value.size() + 2);
  out.push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"':
      case '\\':
        out.push_back('\\');
        out.push_back(c);
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string decode_field(std::string_view& rest, bool& ok) {
  ok = true;
  std::string out;
  if (rest.empty()) return out;
  if (rest.front() == '"') {
    rest.remove_prefix(1);
    bool closed = false;
    while (!rest.empty()) {
      const char c = rest.front();
      rest.remove_prefix(1);
      if (c == '"') {
        closed = true;
        break;
      }
      if (c == '\\' && !rest.empty()) {
        const char e = rest.front();
        rest.remove_prefix(1);
        if (e == 'n') {
          out.push_back('\n');
        } else if (e == 'r') {
          out.push_back('\r');
        } else {
          out.push_back(e);
        }
      } else {
        out.push_back(c);
      }
    }
    ok = closed;  // An unterminated quote is a torn record.
  } else {
    while (!rest.empty() && rest.front() != ' ') {
      out.push_back(rest.front());
      rest.remove_prefix(1);
    }
  }
  if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  return out;
}

std::string encode_message(std::uint64_t seq, std::string_view routing_key,
                           std::string_view body, std::string_view traceparent,
                           double published_wall) {
  std::string out = "M ";
  out += std::to_string(seq);
  out.push_back(' ');
  out += encode_field(routing_key);
  out.push_back(' ');
  out += encode_field(body);
  if (!traceparent.empty()) {
    out.push_back(' ');
    out += encode_field(traceparent);
    out.push_back(' ');
    char wall[32];
    std::snprintf(wall, sizeof wall, "%.6f", published_wall);
    out += wall;
  }
  return out;
}

std::string encode_ack(std::uint64_t seq) {
  return "A " + std::to_string(seq);
}

Record decode_record(std::string_view line) {
  std::string_view rest{line};
  const std::string_view marker = take_token(rest);
  if (marker == "A") {
    AckRecord ack;
    if (!parse_seq(take_token(rest), ack.seq)) {
      return RecordError{"bad ack sequence"};
    }
    return ack;
  }
  if (marker == "M") {
    MessageRecord msg;
    if (!parse_seq(take_token(rest), msg.seq)) {
      return RecordError{"bad message sequence"};
    }
    if (rest.empty()) return RecordError{"missing routing key"};
    bool ok = true;
    msg.routing_key = decode_field(rest, ok);
    if (!ok) return RecordError{"torn routing key"};
    msg.body = decode_field(rest, ok);
    if (!ok) return RecordError{"torn body"};
    if (!rest.empty()) {
      // Optional trace fields (traced publishes only).
      msg.traceparent = decode_field(rest, ok);
      if (!ok) return RecordError{"torn traceparent"};
      const std::string_view wall = take_token(rest);
      char* end = nullptr;
      std::string wall_text{wall};
      msg.published_wall = std::strtod(wall_text.c_str(), &end);
      if (end == wall_text.c_str() || *end != '\0') {
        return RecordError{"bad publish wall time"};
      }
    }
    return msg;
  }
  return RecordError{"unknown record marker"};
}

RecoverResult recover_file(const std::string& path) {
  RecoverResult result;
  std::ifstream in{path};
  if (!in) return result;

  std::string line;
  if (!std::getline(in, line)) return result;
  if (line != kHeader) {
    throw common::BusError("spool " + path + ": missing \"" +
                           std::string{kHeader} + "\" header");
  }

  // Map rather than sorted vector: acks arrive in ack order, not
  // publish order, and compaction means seqs are sparse.
  std::vector<MessageRecord> live;
  auto erase_seq = [&live](std::uint64_t seq) {
    for (auto it = live.begin(); it != live.end(); ++it) {
      if (it->seq == seq) {
        live.erase(it);
        return;
      }
    }
  };

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Record record = decode_record(line);
    if (auto* err = std::get_if<RecordError>(&record)) {
      // Torn trailing record (crash mid-append) is tolerated; anything
      // followed by a valid record is real corruption.
      bool more = false;
      std::string next;
      while (std::getline(in, next)) {
        if (!next.empty()) {
          more = true;
          break;
        }
      }
      if (more) {
        throw common::BusError("spool " + path + ": corrupt record (" +
                               err->reason + ") before end of file");
      }
      ++result.truncated;
      std::fprintf(stderr,
                   "stampede-bus: spool %s: discarded truncated trailing "
                   "record (%s)\n",
                   path.c_str(), err->reason.c_str());
      break;
    }
    if (auto* msg = std::get_if<MessageRecord>(&record)) {
      ++result.messages;
      if (msg->seq >= result.next_seq) result.next_seq = msg->seq + 1;
      live.push_back(std::move(*msg));
    } else {
      const auto& ack = std::get<AckRecord>(record);
      ++result.acks;
      if (ack.seq >= result.next_seq) result.next_seq = ack.seq + 1;
      erase_seq(ack.seq);
    }
  }
  result.live = std::move(live);
  return result;
}

void rewrite_file(const std::string& path,
                  const std::vector<MessageRecord>& live) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::trunc};
    if (!out) return;  // Spool loss degrades durability, not availability.
    out << kHeader << '\n';
    for (const auto& msg : live) {
      out << encode_message(msg.seq, msg.routing_key, msg.body,
                            msg.traceparent, msg.published_wall)
          << '\n';
    }
    out.flush();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
}

}  // namespace stampede::bus::spool
