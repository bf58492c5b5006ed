"""Bad fixture: victim searches that walk the heap beside the one sweep."""


def delete_matching(table, predicates):  # noqa: fixtures skip typed-defs
    victims = [rid for rid, row in table.heap.scan() if predicates.matches(row)]
    for page in table.heap.iter_pages():  # line 6: REPRO102
        victims.extend(page.live)
    victims.extend(table.heap.scan(charge_io=True))  # line 8: REPRO102
    victims.extend(table.heap.scan(charge_io=False))  # uncharged: allowed
    return victims
