"""Bad fixture: examined rows counted over what the filter let through."""


def count_survivors(live, page, page_filter, counters):  # noqa: fixtures skip typed-defs
    survivors = page_filter(live, page) if page else page_filter(live)
    counters.rows_examined += len(survivors)  # line 6: REPRO102
    return survivors


def count_yielded(live, page, page_filter, counters):
    for row in page_filter(live, page):  # line 11: REPRO102 (the loop is the filter)
        counters.rows_examined += 1
        yield row


def count_after_guard(live, visible, counters):
    examined = 0
    for row in live:
        if not visible(row):  # line 19: REPRO102 (only survivors pass it)
            continue
        examined += 1
        yield row
    counters.rows_examined += examined
