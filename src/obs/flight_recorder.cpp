#include "tmwia/obs/flight_recorder.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "tmwia/support/json.hpp"

namespace tmwia::obs {
namespace {

struct KindName {
  RecorderEvent::Kind kind;
  const char* name;
};

constexpr std::array<KindName, 18> kKindNames{{
    {RecorderEvent::Kind::kRunBegin, "run_begin"},
    {RecorderEvent::Kind::kRunEnd, "run_end"},
    {RecorderEvent::Kind::kPhaseBegin, "phase_begin"},
    {RecorderEvent::Kind::kPhaseEnd, "phase_end"},
    {RecorderEvent::Kind::kPhaseSummary, "phase_summary"},
    {RecorderEvent::Kind::kRoundBegin, "round_begin"},
    {RecorderEvent::Kind::kRoundEnd, "round_end"},
    {RecorderEvent::Kind::kProbe, "probe"},
    {RecorderEvent::Kind::kProbeFailed, "probe_failed"},
    {RecorderEvent::Kind::kPost, "post"},
    {RecorderEvent::Kind::kVectorPost, "vector_post"},
    {RecorderEvent::Kind::kCrash, "crash"},
    {RecorderEvent::Kind::kRecover, "recover"},
    {RecorderEvent::Kind::kPostDropped, "post_dropped"},
    {RecorderEvent::Kind::kPostDelayed, "post_delayed"},
    {RecorderEvent::Kind::kDegraded, "degraded"},
    {RecorderEvent::Kind::kOverflow, "overflow"},
    {RecorderEvent::Kind::kNote, "note"},
}};

}  // namespace

const char* to_string(RecorderEvent::Kind kind) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

std::optional<RecorderEvent::Kind> kind_from_string(std::string_view name) {
  for (const auto& kn : kKindNames) {
    if (name == kn.name) return kn.kind;
  }
  return std::nullopt;
}

FlightRecorder::FlightRecorder(std::ostream& out, std::size_t stage_cap)
    : out_(out), stage_cap_(stage_cap) {}

FlightRecorder::~FlightRecorder() { flush(); }

void FlightRecorder::write_locked(RecorderEvent& ev) {
  ev.t = clock_++;
  std::string line;
  line.reserve(96);
  line += "{\"t\":";
  line += std::to_string(ev.t);
  line += ",\"ev\":\"";
  line += to_string(ev.kind);
  line.push_back('"');
  if (ev.has(RecorderEvent::kHasRound)) {
    line += ",\"round\":";
    line += std::to_string(ev.round);
  }
  if (ev.has(RecorderEvent::kHasPlayer)) {
    line += ",\"p\":";
    line += std::to_string(ev.player);
  }
  if (ev.has(RecorderEvent::kHasObject)) {
    line += ",\"o\":";
    line += std::to_string(ev.object);
  }
  if (ev.has(RecorderEvent::kHasA)) {
    line += ",\"a\":";
    line += std::to_string(ev.a);
  }
  if (ev.has(RecorderEvent::kHasB)) {
    line += ",\"b\":";
    line += std::to_string(ev.b);
  }
  if (ev.has(RecorderEvent::kHasX)) {
    line += ",\"x\":";
    support::append_json_f64(line, ev.x);
  }
  if (ev.has(RecorderEvent::kHasY)) {
    line += ",\"y\":";
    support::append_json_f64(line, ev.y);
  }
  if (ev.has(RecorderEvent::kHasLabel)) {
    line += ",\"label\":";
    support::append_json_string(line, ev.label);
  }
  line += "}\n";
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
}

void FlightRecorder::drain_locked() {
  for (std::size_t p = 0; p < stages_.size(); ++p) {
    Stage& st = stages_[p];
    for (Staged& s : st.events) {
      RecorderEvent ev;
      ev.kind = s.kind;
      ev.player = static_cast<std::uint32_t>(p);
      ev.mask = RecorderEvent::kHasPlayer;
      switch (s.kind) {
        case RecorderEvent::Kind::kProbe:
          ev.object = s.object;
          ev.a = s.a;
          ev.b = s.b;
          ev.mask |= RecorderEvent::kHasObject | RecorderEvent::kHasA | RecorderEvent::kHasB;
          break;
        case RecorderEvent::Kind::kProbeFailed:
          ev.object = s.object;
          ev.b = s.b;
          ev.mask |= RecorderEvent::kHasObject | RecorderEvent::kHasB;
          break;
        case RecorderEvent::Kind::kVectorPost:
          ev.a = s.a;
          ev.b = s.b;
          ev.label = std::move(s.label);
          ev.mask |= RecorderEvent::kHasA | RecorderEvent::kHasB | RecorderEvent::kHasLabel;
          break;
        default:  // kCrash / kDegraded carry only the player
          break;
      }
      write_locked(ev);
    }
    st.events.clear();
    if (st.dropped != 0) {
      RecorderEvent ev;
      ev.kind = RecorderEvent::Kind::kOverflow;
      ev.player = static_cast<std::uint32_t>(p);
      ev.a = st.dropped;
      ev.mask = RecorderEvent::kHasPlayer | RecorderEvent::kHasA;
      write_locked(ev);
      st.dropped = 0;
    }
  }
}

void FlightRecorder::emit_serial(RecorderEvent ev) {
  support::MutexLock lk(mu_);
  drain_locked();
  write_locked(ev);
}

void FlightRecorder::run_begin(std::string_view label, double alpha, std::size_t players,
                               std::size_t objects, std::uint64_t d) {
  support::MutexLock lk(mu_);
  drain_locked();
  RecorderEvent ev;
  ev.label = std::string(label);
  ev.x = alpha;
  if (depth_++ == 0) {
    if (stages_.size() < players) stages_.resize(players);
    ev.kind = RecorderEvent::Kind::kRunBegin;
    ev.a = players;
    ev.b = objects;
    ev.mask = RecorderEvent::kHasLabel | RecorderEvent::kHasX | RecorderEvent::kHasA |
              RecorderEvent::kHasB;
  } else {
    ev.kind = RecorderEvent::Kind::kPhaseBegin;
    ev.a = d;
    ev.mask = RecorderEvent::kHasLabel | RecorderEvent::kHasX | RecorderEvent::kHasA;
  }
  write_locked(ev);
}

void FlightRecorder::run_end(std::string_view label, std::uint64_t rounds, std::uint64_t probes) {
  support::MutexLock lk(mu_);
  drain_locked();
  RecorderEvent ev;
  ev.label = std::string(label);
  ev.a = rounds;
  ev.b = probes;
  ev.mask = RecorderEvent::kHasLabel | RecorderEvent::kHasA | RecorderEvent::kHasB;
  if (depth_ > 0) --depth_;
  ev.kind = depth_ == 0 ? RecorderEvent::Kind::kRunEnd : RecorderEvent::Kind::kPhaseEnd;
  write_locked(ev);
}

FlightRecorder::PhaseEval FlightRecorder::phase_summary(
    std::string_view label, const std::vector<bits::BitVector>& outputs,
    std::uint64_t cum_rounds, std::uint64_t cum_probes) {
  PhaseEval eval;
  if (evaluator_) eval = evaluator_(outputs);
  RecorderEvent ev;
  ev.kind = RecorderEvent::Kind::kPhaseSummary;
  ev.label = std::string(label);
  ev.player = static_cast<std::uint32_t>(outputs.size());
  ev.a = cum_rounds;
  ev.b = cum_probes;
  ev.mask = RecorderEvent::kHasLabel | RecorderEvent::kHasPlayer | RecorderEvent::kHasA |
            RecorderEvent::kHasB;
  if (eval.max_disc >= 0.0) {
    ev.x = eval.max_disc;
    ev.y = eval.mean_disc;
    ev.mask |= RecorderEvent::kHasX | RecorderEvent::kHasY;
  }
  emit_serial(std::move(ev));
  return eval;
}

void FlightRecorder::round_begin(std::uint64_t round) {
  RecorderEvent ev;
  ev.kind = RecorderEvent::Kind::kRoundBegin;
  ev.round = round;
  ev.mask = RecorderEvent::kHasRound;
  emit_serial(std::move(ev));
}

void FlightRecorder::round_end(std::uint64_t round, std::uint64_t active_players,
                               std::uint64_t posts) {
  RecorderEvent ev;
  ev.kind = RecorderEvent::Kind::kRoundEnd;
  ev.round = round;
  ev.a = active_players;
  ev.b = posts;
  ev.mask = RecorderEvent::kHasRound | RecorderEvent::kHasA | RecorderEvent::kHasB;
  emit_serial(std::move(ev));
}

void FlightRecorder::post(std::uint64_t round, std::uint32_t player, std::uint32_t object) {
  RecorderEvent ev;
  ev.kind = RecorderEvent::Kind::kPost;
  ev.round = round;
  ev.player = player;
  ev.object = object;
  ev.mask = RecorderEvent::kHasRound | RecorderEvent::kHasPlayer | RecorderEvent::kHasObject;
  emit_serial(std::move(ev));
}

void FlightRecorder::fault(RecorderEvent::Kind kind, std::uint64_t round, std::uint32_t player,
                           std::uint64_t a) {
  RecorderEvent ev;
  ev.kind = kind;
  ev.round = round;
  ev.player = player;
  ev.mask = RecorderEvent::kHasRound | RecorderEvent::kHasPlayer;
  if (kind == RecorderEvent::Kind::kPostDelayed) {
    ev.a = a;
    ev.mask |= RecorderEvent::kHasA;
  }
  emit_serial(std::move(ev));
}

void FlightRecorder::note(std::string_view label, std::uint64_t a, std::uint64_t b) {
  RecorderEvent ev;
  ev.kind = RecorderEvent::Kind::kNote;
  ev.label = std::string(label);
  ev.a = a;
  ev.b = b;
  ev.mask = RecorderEvent::kHasLabel | RecorderEvent::kHasA | RecorderEvent::kHasB;
  emit_serial(std::move(ev));
}

void FlightRecorder::stage(std::uint32_t player, Staged ev) {
  if (player >= stages_.size()) {
    // Probe traffic before the first run_begin (or beyond the declared
    // player count): counted, not recorded.
    unstaged_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Stage& st = stages_[player];
  if (st.events.size() >= stage_cap_) {
    ++st.dropped;
    return;
  }
  st.events.push_back(std::move(ev));
}

void FlightRecorder::probe(std::uint32_t player, std::uint32_t object, bool value,
                           std::uint64_t invocation) {
  Staged s;
  s.kind = RecorderEvent::Kind::kProbe;
  s.object = object;
  s.a = value ? 1 : 0;
  s.b = invocation;
  stage(player, std::move(s));
}

void FlightRecorder::probe_failed(std::uint32_t player, std::uint32_t object,
                                  std::uint64_t invocation) {
  Staged s;
  s.kind = RecorderEvent::Kind::kProbeFailed;
  s.object = object;
  s.b = invocation;
  stage(player, std::move(s));
}

void FlightRecorder::crashed(std::uint32_t player) {
  Staged s;
  s.kind = RecorderEvent::Kind::kCrash;
  stage(player, std::move(s));
}

void FlightRecorder::degraded(std::uint32_t player) {
  Staged s;
  s.kind = RecorderEvent::Kind::kDegraded;
  stage(player, std::move(s));
}

void FlightRecorder::vector_post(std::uint32_t player, std::string_view channel,
                                 std::uint64_t vec_hash, std::uint64_t vec_bits) {
  Staged s;
  s.kind = RecorderEvent::Kind::kVectorPost;
  s.a = vec_hash;
  s.b = vec_bits;
  s.label = std::string(channel);
  stage(player, std::move(s));
}

void FlightRecorder::flush() {
  support::MutexLock lk(mu_);
  drain_locked();
  const auto unstaged = unstaged_dropped_.exchange(0, std::memory_order_relaxed);
  if (unstaged != 0) {
    RecorderEvent ev;
    ev.kind = RecorderEvent::Kind::kOverflow;
    ev.a = unstaged;
    ev.mask = RecorderEvent::kHasA;
    write_locked(ev);
  }
  out_.flush();
}

std::uint64_t FlightRecorder::clock() {
  support::MutexLock lk(mu_);
  return clock_;
}

void FlightRecorder::resume_run(std::size_t players, std::uint64_t clock) {
  support::MutexLock lk(mu_);
  clock_ = clock;
  depth_ = 1;  // re-open the checkpointed run scope silently
  if (stages_.size() < players) stages_.resize(players);
}

// ---------------------------------------------------------------------------
// RecordSink

namespace {

std::unique_ptr<std::ostream> open_log(const std::string& path) {
  // tmwia-lint: allow(durable-write) streaming event sink, not a one-shot artifact
  auto out = std::make_unique<std::ofstream>(path);
  if (!*out) throw std::runtime_error("cannot open record sink '" + path + "'");
  return out;
}

}  // namespace

RecordSink::RecordSink(const std::string& path)
    : out_(open_log(path)), recorder_(*out_) {}

RecordSink::~RecordSink() = default;

// ---------------------------------------------------------------------------
// Reader

namespace {

class LineParser {
 public:
  explicit LineParser(std::string_view line, std::size_t lineno)
      : s_(line), lineno_(lineno) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("recorder log line " + std::to_string(lineno_) + ": " + what);
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }

  [[nodiscard]] bool at_end() const { return pos_ == s_.size(); }

  /// The bytes between two quotes, unescaped. Keys and event names are
  /// read this way: none of the known ones holds a backslash, so an
  /// escaped one can only spell an unknown name.
  std::string_view parse_raw_string() {
    expect('"');
    const std::size_t close = s_.find('"', pos_);
    if (close == std::string_view::npos) fail("unterminated string");
    const std::string_view out = s_.substr(pos_, close - pos_);
    pos_ = close + 1;
    return out;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("truncated escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            if (v > 0x7f) fail("\\u escape beyond ASCII");
            out.push_back(static_cast<char>(v));
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    expect('"');
    return out;
  }

  /// An unsigned decimal integer, whole: digits only, at most `max`.
  std::uint64_t parse_u64(std::string_view key, std::uint64_t max) {
    const std::string_view tok = number_token();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc{} || end != tok.data() + tok.size() || v > max) {
      fail("\"" + std::string(key) + "\" must be an integer in [0, " + std::to_string(max) +
           "], got '" + std::string(tok) + "'");
    }
    return v;
  }

  /// A finite number, whole.
  double parse_finite(std::string_view key) {
    const std::string_view tok = number_token();
    double v = 0.0;
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc{} || end != tok.data() + tok.size() || !std::isfinite(v)) {
      fail("\"" + std::string(key) + "\" must be a finite number, got '" + std::string(tok) +
           "'");
    }
    return v;
  }

 private:
  std::string_view number_token() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}') ++pos_;
    if (pos_ == start) fail("empty value");
    return s_.substr(start, pos_ - start);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t lineno_;
};

RecorderEvent parse_jsonl_line(std::string_view line, std::size_t lineno) {
  constexpr auto kU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr auto kU32 = std::numeric_limits<std::uint32_t>::max();
  // One bit per key for the repeat check: the optional fields' mask
  // bits, plus two for the mandatory `t` and `ev`.
  constexpr unsigned kSeenT = 0x100;
  constexpr unsigned kSeenEv = 0x200;

  LineParser p(line, lineno);
  RecorderEvent ev;
  unsigned seen = 0;
  p.expect('{');
  for (bool first = true; !p.peek('}'); first = false) {
    if (!first) p.expect(',');
    const std::string_view key = p.parse_raw_string();
    p.expect(':');
    unsigned bit = 0;
    if (key == "t") {
      ev.t = p.parse_u64(key, kU64);
      bit = kSeenT;
    } else if (key == "ev") {
      const std::string_view name = p.parse_raw_string();
      const auto k = kind_from_string(name);
      if (!k) p.fail("unknown event kind '" + std::string(name) + "'");
      ev.kind = *k;
      bit = kSeenEv;
    } else if (key == "round") {
      ev.round = p.parse_u64(key, kU64);
      bit = RecorderEvent::kHasRound;
    } else if (key == "p") {
      ev.player = static_cast<std::uint32_t>(p.parse_u64(key, kU32));
      bit = RecorderEvent::kHasPlayer;
    } else if (key == "o") {
      ev.object = static_cast<std::uint32_t>(p.parse_u64(key, kU32));
      bit = RecorderEvent::kHasObject;
    } else if (key == "a") {
      ev.a = p.parse_u64(key, kU64);
      bit = RecorderEvent::kHasA;
    } else if (key == "b") {
      ev.b = p.parse_u64(key, kU64);
      bit = RecorderEvent::kHasB;
    } else if (key == "x") {
      ev.x = p.parse_finite(key);
      bit = RecorderEvent::kHasX;
    } else if (key == "y") {
      ev.y = p.parse_finite(key);
      bit = RecorderEvent::kHasY;
    } else if (key == "label") {
      ev.label = p.parse_string();
      bit = RecorderEvent::kHasLabel;
    } else {
      p.fail("unknown key '" + std::string(key) + "'");
    }
    if ((seen & bit) != 0) p.fail("repeated key '" + std::string(key) + "'");
    seen |= bit;
  }
  p.expect('}');
  if (!p.at_end()) p.fail("bytes after '}'");
  if ((seen & kSeenT) == 0) p.fail("missing \"t\"");
  if ((seen & kSeenEv) == 0) p.fail("missing \"ev\"");
  ev.mask = static_cast<std::uint8_t>(seen & 0xff);
  return ev;
}

}  // namespace

std::vector<RecorderEvent> read_recorder_log(std::istream& in) {
  std::vector<RecorderEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    events.push_back(parse_jsonl_line(line, lineno));
  }
  return events;
}

}  // namespace tmwia::obs
