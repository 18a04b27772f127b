// Package pagecache names the page cache's statistics. The page cache
// itself is an instance of internal/cache, the one untrusted-side pool;
// see that package for the leak argument that covers it.
package pagecache

import "ghostdb/internal/cache"

// Stats is a snapshot of the page cache's counters. It is an alias of
// cache.Stats, kept so callers that name the page cache's statistics by
// this package keep compiling.
type Stats = cache.Stats
