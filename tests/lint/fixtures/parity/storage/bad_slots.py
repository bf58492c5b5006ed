"""Bad fixture: page slots written behind the page's back (storage too)."""


def vacuum(page, slot):  # noqa: fixtures skip typed-defs
    page.slots[slot] = None  # line 5: REPRO102 (subscript store)
    del page.slots[slot]  # line 6: REPRO102 (item delete)
    page.slots[1:3] = []  # line 7: REPRO102 (slice store)


def refill(heap, rows):
    page = heap.pages[-1]
    page.slots.append(rows[0])  # line 12: REPRO102 (list mutator)
    page.slots += rows[1:]  # line 13: REPRO102 (augmented store)
    heap.pages[0].slots = list(rows)  # line 14: REPRO102 (plain store)
    live = [row for row in page.slots if row is not None]  # reading is fine
    return live, page.live, len(page.slots)
