/**
 * @file
 * Byte-buffer serialization primitives for simulator checkpoints.
 *
 * A Saver appends fixed-width little-endian scalars to a byte vector; a
 * Loader reads them back in the same order. The two are archives with
 * one API, so each component's field list is one template instantiated
 * for both. Nothing here knows about components: the field lists live
 * in snapshot::StateIO and the framing (magic, version, digests) in
 * snapshot/checkpoint.hh. All failures surface as SnapshotError, which
 * the checkpoint layer converts into a one-line rejection reason.
 */

#ifndef STACKNOC_SNAPSHOT_SERIALIZE_HH
#define STACKNOC_SNAPSHOT_SERIALIZE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace stacknoc::snapshot {

/** Any malformed-checkpoint condition (truncation, bad tags, ...). */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** FNV-1a 64-bit, the digest used for config keys and payload checks. */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = kFnvOffset)
{
    return fnv1a(s.data(), s.size(), h);
}

/** True for maps (fn gets key and value), false for sets (key only). */
template <class C>
constexpr bool kIsMap = requires { typename C::mapped_type; };

/**
 * The saving archive: appends each field little-endian to a byte vector.
 *
 * Saver and Loader share one field-level API, so a component's transfer
 * function is written once as a template over the archive and names
 * each field once. Scalars: ar.u64(x) writes x at that width (enums and
 * narrower or wider integers convert). Shapes the restoring system
 * already has, written here and checked there: count(), present().
 * Containers: seq() for a variable-length sequence, fixed() for one
 * whose length is a shape, sorted() for an unordered map or set in
 * ascending key order, opt() for a std::optional.
 */
class Saver
{
  public:
    static constexpr bool kLoading = false;

    template <class T> void u8(const T &v) { put<std::uint8_t>(v); }
    template <class T> void u16(const T &v) { put<std::uint16_t>(v); }
    template <class T> void u32(const T &v) { put<std::uint32_t>(v); }
    template <class T> void u64(const T &v) { put<std::uint64_t>(v); }
    template <class T> void i16(const T &v) { put<std::int16_t>(v); }
    template <class T> void i32(const T &v) { put<std::int32_t>(v); }
    void b(bool v) { u8(v ? 1 : 0); }

    void count(std::size_t n, const char *) { u32(n); }
    void present(bool has, const char *) { b(has); }

    template <class C, class Fn>
    void
    seq(const C &c, Fn &&fn)
    {
        u32(c.size());
        for (const auto &e : c)
            fn(e);
    }

    template <class C, class Fn>
    void
    fixed(const C &c, const char *what, Fn &&fn)
    {
        count(c.size(), what);
        for (const auto &e : c)
            fn(e);
    }

    template <class C, class Fn>
    void
    sorted(const C &c, Fn &&fn)
    {
        const auto key = [](const auto &e) -> const auto & {
            if constexpr (kIsMap<C>)
                return e.first;
            else
                return e;
        };
        std::vector<const typename C::value_type *> items;
        items.reserve(c.size());
        for (const auto &e : c)
            items.push_back(&e);
        std::sort(items.begin(), items.end(),
                  [&](const auto *x, const auto *y) {
                      return key(*x) < key(*y);
                  });
        u32(items.size());
        for (const auto *e : items) {
            if constexpr (kIsMap<C>)
                fn(e->first, e->second);
            else
                fn(*e);
        }
    }

    template <class T, class Fn>
    void
    opt(const std::optional<T> &o, Fn &&fn)
    {
        b(o.has_value());
        if (o)
            fn(*o);
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }

  private:
    template <class W, class T>
    void
    put(const T &v)
    {
        const auto w =
            static_cast<std::make_unsigned_t<W>>(static_cast<W>(v));
        for (std::size_t i = 0; i < sizeof(W); ++i)
            buf_.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * The loading archive: reads fields back in the order the Saver wrote
 * them, into the restoring system's objects. Throws SnapshotError on
 * truncation, a shape that differs from the restoring system, or a
 * count larger than the bytes left (every element takes at least one
 * byte, so such a count can only come from a corrupt file).
 */
class Loader
{
  public:
    static constexpr bool kLoading = true;

    Loader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    template <class T> void u8(T &v) { get<std::uint8_t>(v); }
    template <class T> void u16(T &v) { get<std::uint16_t>(v); }
    template <class T> void u32(T &v) { get<std::uint32_t>(v); }
    template <class T> void u64(T &v) { get<std::uint64_t>(v); }
    template <class T> void i16(T &v) { get<std::int16_t>(v); }
    template <class T> void i32(T &v) { get<std::int32_t>(v); }
    void b(bool &v) { v = take<std::uint8_t>() != 0; }

    void
    count(std::size_t n, const char *what)
    {
        if (take<std::uint32_t>() != n)
            mismatch(what);
    }

    void
    present(bool has, const char *what)
    {
        if ((take<std::uint8_t>() != 0) != has)
            mismatch(what);
    }

    template <class C, class Fn>
    void
    seq(C &c, Fn &&fn)
    {
        const std::uint32_t n = length();
        c.clear();
        for (std::uint32_t i = 0; i < n; ++i) {
            typename C::value_type e{};
            fn(e);
            c.push_back(std::move(e));
        }
    }

    template <class C, class Fn>
    void
    fixed(C &c, const char *what, Fn &&fn)
    {
        count(c.size(), what);
        for (auto &&e : c)
            fn(e);
    }

    template <class C, class Fn>
    void
    sorted(C &c, Fn &&fn)
    {
        const std::uint32_t n = length();
        c.clear();
        for (std::uint32_t i = 0; i < n; ++i) {
            typename C::key_type k{};
            if constexpr (kIsMap<C>) {
                typename C::mapped_type v{};
                fn(k, v);
                c.emplace(std::move(k), std::move(v));
            } else {
                fn(k);
                c.insert(std::move(k));
            }
        }
    }

    template <class T, class Fn>
    void
    opt(std::optional<T> &o, Fn &&fn)
    {
        o.reset();
        if (take<std::uint8_t>() != 0)
            fn(o.emplace());
    }

    bool atEnd() const { return pos_ == size_; }

  private:
    template <class W>
    W
    take()
    {
        if (size_ - pos_ < sizeof(W))
            throw SnapshotError("checkpoint payload truncated");
        using U = std::make_unsigned_t<W>;
        U v = 0;
        for (std::size_t i = 0; i < sizeof(W); ++i)
            v = static_cast<U>(v | U(data_[pos_ + i]) << (8 * i));
        pos_ += sizeof(W);
        return static_cast<W>(v);
    }

    template <class W, class T>
    void
    get(T &v)
    {
        v = static_cast<T>(take<W>());
    }

    std::uint32_t
    length()
    {
        const std::uint32_t n = take<std::uint32_t>();
        if (n > size_ - pos_)
            throw SnapshotError("checkpoint count exceeds the payload "
                                "(corrupt file)");
        return n;
    }

    [[noreturn]] static void
    mismatch(const char *what)
    {
        throw SnapshotError(std::string("checkpoint structure mismatch: ")
                            + what);
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace stacknoc::snapshot

#endif // STACKNOC_SNAPSHOT_SERIALIZE_HH
