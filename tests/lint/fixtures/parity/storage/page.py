"""Good fixture: the page itself owns its slot list."""


class Page:
    def append(self, row):  # noqa: fixtures skip typed-defs
        self.slots.append(row)
        self._live = None
        return len(self.slots) - 1

    def delete(self, slot):
        row = self.slots[slot]
        self.slots[slot] = None
        self._live = None
        return row
