// Per-layer replay: host time of direct calls into the lower layers with the
// workload's own sizes and keys — the part of each layer's cost the
// simulated clock never sees.  Runs single-threaded on the main thread with
// tracing off, after the workload's timed steps.
#include "bench.hpp"

#include <pmemcpy/crc32c.hpp>
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/serial/bp4.hpp>

#include <algorithm>
#include <cstring>
#include <memory>

namespace pb {

namespace {

namespace serial = pmemcpy::serial;
using pmemcpy::PmemNode;

constexpr int kReps = 5;  // odd: see the CRC check

/// Median over kReps of @p fn's host seconds.
template <typename Fn>
double timed_median(Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) {
    const double t0 = host_now();
    fn();
    v.push_back(host_now() - t0);
  }
  return median(v);
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t salt) {
  std::vector<std::byte> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>(mix(salt, i / 8) >> (8 * (i % 8)));
  }
  return b;
}

}  // namespace

void add_replay(Result& r, const ReplayShape& sh) {
  trace::set_enabled(false);
  std::size_t total = 0, largest = 0;
  for (auto n : sh.bytes) {
    total += n;
    largest = std::max(largest, n);
  }
  const double kib = static_cast<double>(total) / 1024.0;
  const auto src = pattern(largest, 1);

  // serial: BP4 header + payload into a DRAM span, decode back, CRC32C.
  {
    const std::size_t hdr = serial::bp4_header_size(1);
    std::vector<std::byte> blob(hdr + largest), out(largest);
    std::uint32_t crc = 0;
    const double enc = timed_median([&] {
      for (auto n : sh.bytes) {
        serial::SpanSink sink({blob.data(), hdr + n});
        pmemcpy::detail::write_blob_header(
            sink, serial::SerializerId::kBp4, serial::dtype_of_v<double>, n,
            {n / sizeof(double)}, pmemcpy::Box({0}, {n / sizeof(double)}));
        sink.write(src.data(), n);
      }
    });
    const double dec = timed_median([&] {
      for (auto n : sh.bytes) {
        serial::SpanSource in({blob.data(), hdr + n});
        const auto meta = serial::bp4_read_header(in);
        in.read(out.data(), std::min<std::size_t>(n, meta.payload_bytes));
      }
    });
    const double crc_s = timed_median([&] {
      for (auto n : sh.bytes) crc ^= pmemcpy::crc32c(blob.data(), hdr + n);
    });
    // kReps is odd, so the XOR over all reps equals one rep's XOR.
    std::uint32_t once = 0;
    for (auto n : sh.bytes) once ^= pmemcpy::crc32c(blob.data(), hdr + n);
    if (crc != once ||
        std::memcmp(out.data(), src.data(), sh.bytes.back()) != 0) {
      r.fail("serial replay: decode or CRC disagrees with the encoded blob");
    }
    r.add("serial.encode.host_ns_per_kib", enc * 1e9 / kib, "ns/KiB");
    r.add("serial.decode.host_ns_per_kib", dec * 1e9 / kib, "ns/KiB");
    r.add("serial.crc32c.host_ns_per_kib", crc_s * 1e9 / kib, "ns/KiB");
  }

  // engine (table + tree), pmemobj Pool/HashTable, pmemfs — one node.
  std::size_t key_total = 0;
  for (auto n : sh.bytes) key_total += n;
  PmemNode::Options o;
  o.capacity = 4 * key_total + 8 * sh.piece_bytes + (96ull << 20);
  o.pool_fraction = 0.6;
  PmemNode node(o);
  auto pool = node.create_pool("replay", 0);
  pool->set_magazine_size(8);
  pool->set_alloc_stripes(8);
  {
    auto t = pmemcpy::obj::HashTable::create(*pool, 8192);
    pool->set_root(t.header_off());
  }
  auto table = node.table_for(pool, pool->root());
  table->set_auto_grow(true);
  {
    auto eng = pmemcpy::engine::make_table_engine(pool, table);
    const auto payload = pattern(*std::max_element(sh.bytes.begin(), sh.bytes.end()), 2);
    // Overwrites after the first pass: the steady state the workloads run in.
    auto put_all = [&] {
      for (std::size_t i = 0; i < sh.keys.size(); ++i) {
        const std::size_t n = sh.bytes[i];
        auto h = eng->put(sh.keys[i], n, 0, false);
        h->sink().write(payload.data(), n);
        h->commit(pmemcpy::crc32c(payload.data(), n));
      }
    };
    put_all();
    const double put_s = timed_median(put_all);
    r.add("engine.put.host_us", put_s * 1e6 / static_cast<double>(sh.keys.size()), "us");

    std::size_t found = 0;
    const double find_s = timed_median([&] {
      for (const auto& k : sh.keys) found += table->find(k).has_value() ? 1 : 0;
    });
    if (found != sh.keys.size() * kReps) r.fail("hashtable replay: a key went missing");
    r.add("ht.find.host_ns", find_s * 1e9 / static_cast<double>(sh.keys.size()), "ns");
  }
  {
    std::vector<std::uint64_t> offs(sh.bytes.size());
    std::vector<double> allocs;
    for (int i = 0; i < kReps; ++i) {
      const double t0 = host_now();
      for (std::size_t k = 0; k < offs.size(); ++k) offs[k] = pool->alloc(sh.bytes[k]);
      allocs.push_back(host_now() - t0);
      for (auto off : offs) pool->free(off);
    }
    r.add("pool.alloc.host_ns", median(allocs) * 1e9 / static_cast<double>(offs.size()), "ns");
  }
  {
    node.fs().mkdirs("/replay");
    auto eng = pmemcpy::engine::make_tree_engine(node.fs(), "/replay", false);
    const auto piece = pattern(sh.piece_bytes, 3);
    const double put_s = timed_median([&] {
      for (int i = 0; i < 4; ++i) {
        auto h = eng->put("piece" + std::to_string(i), piece.size(), 0, false);
        h->sink().write(piece.data(), piece.size());
        h->commit(pmemcpy::crc32c(piece.data(), piece.size()));
      }
    });
    r.add("engine.tree_put.host_us", put_s * 1e6 / 4.0, "us");

    auto& fs = node.fs();
    auto f = fs.open("/replay/raw", pmemcpy::fs::OpenMode::kTruncate);
    (void)fs.pwrite(f, piece.data(), piece.size(), 0);
    fs.fsync(f);
    std::vector<std::byte> back(piece.size());
    const double rd = timed_median([&] {
      for (int i = 0; i < 8; ++i) (void)fs.pread(f, back.data(), back.size(), 0);
    });
    if (back != piece) r.fail("pmemfs replay: read back differs");
    r.add("fs.read.host_ns_per_kib",
          rd * 1e9 / (8.0 * static_cast<double>(piece.size()) / 1024.0), "ns/KiB");
  }

  // pmemdev: raw device write/read bandwidth and small persists.
  {
    pmemcpy::pmem::Device dev(largest + (4ull << 20));
    std::vector<std::byte> back(largest);
    const double w = timed_median([&] {
      for (auto n : sh.bytes) dev.write(0, src.data(), n);
    });
    const double rd = timed_median([&] {
      for (auto n : sh.bytes) dev.read(0, back.data(), n);
    });
    const double gib = static_cast<double>(total) / (1024.0 * 1024.0 * 1024.0);
    r.add("pmemdev.write.host_gibps", gib / w, "GiB/s");
    r.add("pmemdev.read.host_gibps", gib / rd, "GiB/s");
    std::vector<std::size_t> sizes = sh.bytes;
    std::sort(sizes.begin(), sizes.end());
    const std::size_t line = std::max<std::size_t>(64, sizes[sizes.size() / 2]);
    constexpr int kPersists = 4096;
    const double p = timed_median([&] {
      for (int i = 0; i < kPersists; ++i) {
        dev.write(0, src.data(), std::min(line, largest));
        dev.persist(0, line);
      }
    });
    const double wr_only = timed_median([&] {
      for (int i = 0; i < kPersists; ++i) dev.write(0, src.data(), std::min(line, largest));
    });
    r.add("pmemdev.persist.host_ns", std::max(0.0, p - wr_only) * 1e9 / kPersists, "ns");
  }

  // par: an empty-body Runtime::run at the workload's rank count.
  {
    std::vector<double> v;
    for (int i = 0; i < 20; ++i) {
      const double t0 = host_now();
      par::Runtime::run(kRanks, [](par::Comm&) {});
      v.push_back(host_now() - t0);
    }
    r.add("par.run.host_ms", median(v) * 1e3, "ms");
  }
}

}  // namespace pb
